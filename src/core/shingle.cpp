#include "core/shingle.hpp"

#include <algorithm>

#include "util/min_s.hpp"
#include "util/rng.hpp"

namespace gpclust::core {

void min_s_images(std::span<const VertexId> gamma, const AffineHash& h, u32 s,
                  std::span<u64> out) {
  GPCLUST_CHECK(s >= 1 && out.size() >= s, "output span too small");
  util::min_s_keys(gamma, h, out.first(s));
}

void merge_minima(std::span<u64> into, std::span<const u64> other) {
  GPCLUST_CHECK(into.size() == other.size(), "minima arrays differ in size");
  const std::size_t s = into.size();
  std::vector<u64> merged(s, kNoValue);
  std::size_t i = 0, j = 0;
  for (std::size_t k = 0; k < s; ++k) {
    if (j >= s || (i < s && into[i] <= other[j])) {
      merged[k] = into[i++];
    } else {
      merged[k] = other[j++];
    }
  }
  std::copy(merged.begin(), merged.end(), into.begin());
}

ShingleId hash_shingle(u32 trial, std::span<const u64> minima) {
  u64 id = util::mix64(0x5179'6e67'6c65ULL ^ (u64{trial} + 1));
  for (u64 value : minima) {
    if (value == kNoValue) return kNoValue;  // degree < s: no shingle
    id = util::mix64(id ^ util::mix64(value));
  }
  return id;
}

}  // namespace gpclust::core
