#include "core/shingle_graph.hpp"

#include <algorithm>

#include "core/shingle_graph_detail.hpp"
#include "util/parallel_sort.hpp"

namespace gpclust::core {

namespace detail {

BipartiteShingleGraph group_packed(std::vector<__uint128_t>&& packed) {
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());

  BipartiteShingleGraph g;
  g.members.reserve(packed.size());
  g.offsets.push_back(0);
  ShingleId current = 0;
  bool in_group = false;
  for (__uint128_t key : packed) {
    const ShingleId s = static_cast<ShingleId>(key >> 32);
    const u32 o = static_cast<u32>(key & 0xffffffffu);
    if (!in_group || s != current) {
      if (in_group) g.offsets.push_back(g.members.size());  // close group
      current = s;
      in_group = true;
    }
    g.members.push_back(o);
  }
  if (in_group) g.offsets.push_back(g.members.size());
  return g;
}

std::vector<__uint128_t> pack_tuples(ShingleTuples&& tuples) {
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");
  std::vector<__uint128_t> packed(n);
  for (std::size_t i = 0; i < n; ++i) {
    packed[i] = pack_tuple(tuples.shingle[i], tuples.owner[i]);
  }
  tuples.shingle.clear();
  tuples.shingle.shrink_to_fit();
  tuples.owner.clear();
  tuples.owner.shrink_to_fit();
  return packed;
}

}  // namespace detail

BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples) {
  // The gather sort is the dominant CPU-side cost at scale; pack the
  // (shingle, owner) pairs into contiguous 128-bit PODs before sorting.
  auto packed = detail::pack_tuples(std::move(tuples));
  util::parallel_sort(packed, util::default_thread_pool());
  return detail::group_packed(std::move(packed));
}

namespace {

/// Monotone multiply-shift bucket map: floor(shingle * shards / 2^64).
/// Shingle ids are (salted) hashes, so they spread uniformly over the u64
/// range and the shards come out balanced without any sampling pass.
inline u32 shard_of(ShingleId shingle, u32 shards) {
  return static_cast<u32>(
      (static_cast<__uint128_t>(shingle) * shards) >> 64);
}

}  // namespace

BipartiteShingleGraph aggregate_tuples_sharded(ShingleTuples&& tuples,
                                               u32 shards) {
  if (shards <= 1) return aggregate_tuples(std::move(tuples));
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");

  // Counting-sort scatter: one histogram pass, a prefix sum, then every
  // tuple placed straight into its shard's region of a single packed
  // allocation — no per-shard vectors, no reallocation.
  std::vector<std::size_t> bounds(static_cast<std::size_t>(shards) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++bounds[shard_of(tuples.shingle[i], shards) + 1];
  }
  for (u32 sh = 0; sh < shards; ++sh) bounds[sh + 1] += bounds[sh];

  std::vector<__uint128_t> packed(n);
  std::vector<std::size_t> cursor(bounds.begin(), bounds.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const u32 sh = shard_of(tuples.shingle[i], shards);
    packed[cursor[sh]++] = detail::pack_tuple(tuples.shingle[i], tuples.owner[i]);
  }
  tuples.shingle.clear();
  tuples.shingle.shrink_to_fit();
  tuples.owner.clear();
  tuples.owner.shrink_to_fit();

  // Each shard sorts independently (cache-sized working sets); because the
  // shard map is monotone, the concatenation is already globally sorted.
  for (u32 sh = 0; sh < shards; ++sh) {
    std::sort(packed.begin() + static_cast<std::ptrdiff_t>(bounds[sh]),
              packed.begin() + static_cast<std::ptrdiff_t>(bounds[sh + 1]));
  }
  return detail::group_packed(std::move(packed));
}

}  // namespace gpclust::core
