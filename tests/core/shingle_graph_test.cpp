#include "core/shingle_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace gpclust::core {
namespace {

TEST(AggregateTuples, EmptyInputYieldsEmptyGraph) {
  const auto g = aggregate_tuples(ShingleTuples{});
  EXPECT_EQ(g.num_left(), 0u);
  EXPECT_TRUE(g.members.empty());
}

TEST(AggregateTuples, GroupsByShingle) {
  ShingleTuples t;
  t.append(100, 1);
  t.append(200, 2);
  t.append(100, 3);
  t.append(200, 1);
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), 2u);
  // Groups ordered by shingle id; members ascending.
  const auto l0 = g.list(0);
  const auto l1 = g.list(1);
  EXPECT_EQ(std::vector<u32>(l0.begin(), l0.end()), (std::vector<u32>{1, 3}));
  EXPECT_EQ(std::vector<u32>(l1.begin(), l1.end()), (std::vector<u32>{1, 2}));
}

TEST(AggregateTuples, DuplicatePairsCollapse) {
  ShingleTuples t;
  t.append(5, 9);
  t.append(5, 9);
  t.append(5, 9);
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), 1u);
  EXPECT_EQ(g.list(0).size(), 1u);
}

TEST(AggregateTuples, OrderOfTuplesIrrelevant) {
  util::Xoshiro256 rng(21);
  ShingleTuples a, b;
  std::vector<std::pair<ShingleId, u32>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(rng.next_below(50), static_cast<u32>(rng.next_below(40)));
  }
  for (const auto& [s, o] : pairs) a.append(s, o);
  // Shuffle for b.
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
  }
  for (const auto& [s, o] : pairs) b.append(s, o);

  const auto ga = aggregate_tuples(std::move(a));
  const auto gb = aggregate_tuples(std::move(b));
  EXPECT_EQ(ga.offsets, gb.offsets);
  EXPECT_EQ(ga.members, gb.members);
}

TEST(AggregateTuples, MatchesMapBasedReference) {
  util::Xoshiro256 rng(33);
  ShingleTuples t;
  std::map<ShingleId, std::set<u32>> reference;
  for (int i = 0; i < 1000; ++i) {
    const ShingleId s = rng.next_below(100);
    const u32 o = static_cast<u32>(rng.next_below(64));
    t.append(s, o);
    reference[s].insert(o);
  }
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), reference.size());
  std::size_t i = 0;
  for (const auto& [shingle, owners] : reference) {
    const auto list = g.list(i++);
    EXPECT_EQ(std::set<u32>(list.begin(), list.end()), owners);
  }
}

TEST(AggregateTuples, MismatchedArraysThrow) {
  ShingleTuples t;
  t.shingle.push_back(1);
  EXPECT_THROW(aggregate_tuples(std::move(t)), InvalidArgument);
}

// --- oracle tests of the sharded gather sort -----------------------------
// The identity suites run graphs far below the one-shard cutoff, so these
// are the tests that drive the multi-shard, pool-parallel path.

/// Test-local reference aggregation: pack, std::sort, unique, group.
BipartiteShingleGraph reference_aggregate(const ShingleTuples& tuples) {
  std::vector<__uint128_t> keys;
  keys.reserve(tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    keys.push_back((static_cast<__uint128_t>(tuples.shingle[i]) << 32) |
                   tuples.owner[i]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  BipartiteShingleGraph g;
  g.offsets.push_back(0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && (keys[i] >> 32) != (keys[i - 1] >> 32)) {
      g.offsets.push_back(g.members.size());
    }
    g.members.push_back(static_cast<u32>(keys[i]));
  }
  if (!keys.empty()) g.offsets.push_back(g.members.size());
  return g;
}

void expect_matches_reference(const ShingleTuples& tuples) {
  const auto expected = reference_aggregate(tuples);
  ShingleTuples input = tuples;
  const auto g = aggregate_tuples(std::move(input));
  EXPECT_EQ(g.offsets, expected.offsets) << tuples.size() << " tuples";
  EXPECT_EQ(g.members, expected.members) << tuples.size() << " tuples";
}

/// `n` tuples with hashed (uniform u64) shingle ids, as the shingling
/// passes emit them; ids repeat so groups have several members.
ShingleTuples hashed_tuples(std::size_t n, u64 seed) {
  util::Xoshiro256 rng(seed);
  std::vector<ShingleId> ids(std::max<std::size_t>(1, n / 4));
  for (auto& id : ids) id = rng.next();
  ShingleTuples t;
  for (std::size_t i = 0; i < n; ++i) {
    t.append(ids[rng.next_below(ids.size())],
             static_cast<u32>(rng.next_below(1 << 20)));
  }
  return t;
}

TEST(AggregateTuplesOracle, MatchesReferenceAcrossTheShardCutoff) {
  // 0 and 1 tuple, one below and at the one-shard cutoff (2^16), and a
  // ~300k input that splits into many shards sorted on the pool.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              (std::size_t{1} << 16) - 1,
                              std::size_t{1} << 16, std::size_t{300'007}}) {
    expect_matches_reference(hashed_tuples(n, 0x5eed + n));
  }
}

TEST(AggregateTuplesOracle, EveryTupleInOneShard) {
  // All ids ~0 map to the last shard; every other shard stays empty.
  ShingleTuples t;
  util::Xoshiro256 rng(9);
  for (std::size_t i = 0; i < (std::size_t{1} << 17); ++i) {
    t.append(~u64{0}, static_cast<u32>(rng.next_below(5000)));
  }
  expect_matches_reference(t);
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), 1u);
  EXPECT_EQ(g.list(0).size(), 5000u);
}

TEST(AggregateTuplesOracle, DuplicatePairsCollapseAcrossShards) {
  // Every (shingle, owner) pair appears three times, in scattered order.
  const ShingleTuples base = hashed_tuples(40'000, 17);
  ShingleTuples t;
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      const std::size_t j = (i * 7919 + static_cast<std::size_t>(copy)) %
                            base.size();
      t.append(base.shingle[j], base.owner[j]);
    }
  }
  expect_matches_reference(t);
}

TEST(AggregateTuplesOracle, MismatchedArraysThrowAtEverySize) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{1} << 17}) {
    ShingleTuples t = hashed_tuples(n, 3);
    t.owner.pop_back();
    EXPECT_THROW(aggregate_tuples(std::move(t)), InvalidArgument) << n;
  }
}

}  // namespace
}  // namespace gpclust::core
