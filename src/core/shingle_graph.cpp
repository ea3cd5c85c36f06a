#include "core/shingle_graph.hpp"

#include <algorithm>

#include "core/shingle_graph_detail.hpp"
#include "util/thread_pool.hpp"

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

}  // namespace detail

namespace {

/// Tuples per shard: 2^14 packed 128-bit records are 256 KB, one
/// L2-resident sort (a 1-core sweep over 1.2M tuples did best at ~19k
/// per shard).
constexpr std::size_t kTuplesPerShard = std::size_t{1} << 14;

/// Below this many tuples one shard is sorted inline on the caller, so
/// small aggregations (tests, distributed ranks, ingest reclusters) never
/// touch the thread pool.
constexpr std::size_t kMinShardedTuples = std::size_t{1} << 16;

/// Monotone multiply-shift shard map: floor(shingle * shards / 2^64).
/// Shingle ids are (salted) hashes, so they spread uniformly over the u64
/// range and the shards come out balanced without any sampling pass.
inline u32 shard_of(ShingleId shingle, u32 shards) {
  return static_cast<u32>(
      (static_cast<__uint128_t>(shingle) * shards) >> 64);
}

}  // namespace

BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples) {
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");
  const u32 shards =
      n < kMinShardedTuples
          ? 1
          : static_cast<u32>((n + kTuplesPerShard - 1) / kTuplesPerShard);

  // Counting-sort scatter: one histogram pass, a prefix sum, then every
  // tuple packed into one (shingle, owner)-ordered 128-bit key and placed
  // straight into its shard's region of a single allocation.
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
  const util::Workers workers(shards == 1 ? 1 : 0);
  workers.parallel_for(0, shards, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t sh = lo; sh < hi; ++sh) {
      std::sort(packed.begin() + static_cast<std::ptrdiff_t>(bounds[sh]),
                packed.begin() + static_cast<std::ptrdiff_t>(bounds[sh + 1]));
    }
  });
  return detail::group_packed(std::move(packed));
}

}  // namespace gpclust::core
