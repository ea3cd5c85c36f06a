#include "core/minhash.hpp"

#include "util/rng.hpp"

namespace gpclust::core {

HashFamily::HashFamily(u32 count, u64 seed, u32 level) {
  GPCLUST_CHECK(count >= 1, "hash family needs at least one member");
  util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (level + 1)));
  hashes_.reserve(count);
  for (u32 j = 0; j < count; ++j) {
    AffineHash h;
    // A in [1, P) keeps the map bijective.
    h.a = 1 + sm.next() % (util::kMersenne61 - 1);
    h.b = sm.next() % util::kMersenne61;
    hashes_.push_back(h);
  }
}

}  // namespace gpclust::core
