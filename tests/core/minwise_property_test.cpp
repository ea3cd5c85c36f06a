// Statistical property tests for the min-wise shingling machinery
// (DESIGN.md invariant 2): the probability that two vertices share a
// min-s shingle tracks the Jaccard similarity of their neighborhoods.
// For s=1, P[same shingle] equals the Jaccard index exactly (Broder et
// al. [4]); we check the empirical rate over many independent trials.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/minhash.hpp"
#include "core/shingle.hpp"
#include "util/rng.hpp"

namespace gpclust::core {
namespace {

double jaccard(std::vector<VertexId> a, std::vector<VertexId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<VertexId> inter, uni;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(uni));
  return static_cast<double>(inter.size()) / static_cast<double>(uni.size());
}

/// Empirical share of trials in which the two lists produce identical
/// min-s shingles.
double shared_shingle_rate(const std::vector<VertexId>& a,
                           const std::vector<VertexId>& b, u32 s, u32 trials,
                           u64 seed) {
  const HashFamily fam(trials, seed, 1);
  std::vector<u64> ma(s), mb(s);
  u32 same = 0;
  for (u32 j = 0; j < trials; ++j) {
    min_s_images(a, fam[j], s, ma);
    min_s_images(b, fam[j], s, mb);
    if (hash_shingle(j, ma) == hash_shingle(j, mb)) ++same;
  }
  return static_cast<double>(same) / trials;
}

/// Builds two neighbor lists with `shared` common elements and
/// `unique_each` private elements each.
std::pair<std::vector<VertexId>, std::vector<VertexId>> make_lists(
    std::size_t shared, std::size_t unique_each, util::Xoshiro256& rng) {
  std::vector<VertexId> common, a, b;
  for (std::size_t i = 0; i < shared; ++i) {
    common.push_back(static_cast<VertexId>(rng.next_below(1u << 30)));
  }
  a = common;
  b = common;
  for (std::size_t i = 0; i < unique_each; ++i) {
    a.push_back(static_cast<VertexId>(rng.next_below(1u << 30)));
    b.push_back(static_cast<VertexId>(rng.next_below(1u << 30)));
  }
  return {a, b};
}

TEST(MinWiseProperty, IdenticalSetsAlwaysShare) {
  util::Xoshiro256 rng(1);
  auto [a, _] = make_lists(30, 0, rng);
  EXPECT_DOUBLE_EQ(shared_shingle_rate(a, a, 2, 200, 5), 1.0);
}

TEST(MinWiseProperty, DisjointSetsNeverShare) {
  util::Xoshiro256 rng(2);
  auto [a, b] = make_lists(0, 25, rng);
  EXPECT_DOUBLE_EQ(shared_shingle_rate(a, b, 2, 200, 5), 0.0);
}

TEST(MinWiseProperty, SingleElementShingleMatchesJaccard) {
  // s=1: P[min-hash collision] == J(A,B). Use J = 0.5 (20 shared, 10+10).
  util::Xoshiro256 rng(3);
  auto [a, b] = make_lists(20, 10, rng);
  const double j = jaccard(a, b);
  ASSERT_NEAR(j, 0.5, 1e-9);
  const double rate = shared_shingle_rate(a, b, 1, 4000, 11);
  EXPECT_NEAR(rate, j, 0.04);
}

TEST(MinWiseProperty, RateIncreasesWithJaccard) {
  util::Xoshiro256 rng(4);
  auto [lo_a, lo_b] = make_lists(10, 20, rng);   // J ~ 0.2
  auto [hi_a, hi_b] = make_lists(40, 5, rng);    // J ~ 0.8
  const double lo = shared_shingle_rate(lo_a, lo_b, 2, 1000, 13);
  const double hi = shared_shingle_rate(hi_a, hi_b, 2, 1000, 13);
  EXPECT_LT(lo + 0.15, hi);
}

TEST(MinWiseProperty, SizeTwoShingleApproximatesJaccardSquared) {
  // For s=2 the match probability is close to J^2 when sets are large
  // (both minima must coincide; approximately independent events).
  util::Xoshiro256 rng(5);
  auto [a, b] = make_lists(60, 20, rng);  // J = 60/100 = 0.6
  const double j = jaccard(a, b);
  const double rate = shared_shingle_rate(a, b, 2, 4000, 17);
  EXPECT_NEAR(rate, j * j, 0.07);
}

class MinWiseSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MinWiseSweep, S1RateTracksJaccardAcrossOverlaps) {
  const std::size_t shared = GetParam();
  util::Xoshiro256 rng(100 + shared);
  // Total union size fixed at 60: shared + 2 * unique = 60.
  const std::size_t unique_each = (60 - shared) / 2;
  auto [a, b] = make_lists(shared, unique_each, rng);
  const double j = jaccard(a, b);
  const double rate = shared_shingle_rate(a, b, 1, 3000, 23);
  EXPECT_NEAR(rate, j, 0.05) << "shared=" << shared;
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, MinWiseSweep,
                         ::testing::Values(0, 10, 20, 30, 40, 50, 58));

}  // namespace
}  // namespace gpclust::core
