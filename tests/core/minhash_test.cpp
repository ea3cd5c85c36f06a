#include "core/minhash.hpp"

#include <gtest/gtest.h>

#include <set>

namespace gpclust::core {
namespace {

constexpr u64 kP = util::kMersenne61;

/// (a * v + b) mod P by 128-bit division: the formula the fold-and-subtract
/// reduction must reproduce.
u64 reference(u64 a, u64 b, u64 v) {
  const __uint128_t av = static_cast<__uint128_t>(a) * (v % kP);
  return static_cast<u64>((av % kP + b) % kP);
}

TEST(AffineHash, IsBijectiveOnMersenneField) {
  // v = a^-1 * (h(v) - b) mod P inverts the map, so distinct inputs in
  // [0, P) can never share an image.
  const AffineHash h{.a = 3, .b = 5};
  const u64 a_inv = util::powmod(h.a, kP - 2, kP);
  for (u64 v : {u64{0}, u64{1}, u64{2}, u64{12345}, kP / 2, kP - 2, kP - 1}) {
    const u64 img = h(v);
    ASSERT_LT(img, kP);
    EXPECT_EQ(util::mulmod(a_inv, (img + kP - h.b) % kP, kP), v);
  }
  std::set<u64> images;
  for (u64 v = 0; v < 4096; ++v) images.insert(h(kP - 1 - v));
  EXPECT_EQ(images.size(), 4096u);
}

TEST(AffineHash, MatchesDirectFormula) {
  const AffineHash h{.a = 7, .b = 11};
  for (u64 v = 0; v < 50; ++v) EXPECT_EQ(h(v), 7 * v + 11);
  const AffineHash big{.a = 0x1234'5678'9abcULL, .b = kP - 3};
  for (u64 v : {u64{0}, u64{1}, kP - 1, kP, kP + 1, ~u64{0}}) {
    EXPECT_EQ(big(v), reference(big.a, big.b, v)) << v;
  }
}

TEST(AffineHash, LargeModulusNoOverflow) {
  const AffineHash h{.a = kP - 1, .b = 12345};
  // a = p-1 means h(v) = (p - v + b) mod p; check a couple of points.
  EXPECT_EQ(h(0), 12345u);
  EXPECT_EQ(h(1), 12344u);
  EXPECT_LT(h(999999999999ULL), kP);
}

TEST(HashFamily, DeterministicForSeedAndLevel) {
  const HashFamily a(10, 42, 1);
  const HashFamily b(10, 42, 1);
  for (u32 j = 0; j < 10; ++j) {
    EXPECT_EQ(a[j].a, b[j].a);
    EXPECT_EQ(a[j].b, b[j].b);
  }
}

TEST(HashFamily, LevelsProduceDifferentFamilies) {
  const HashFamily l1(10, 42, 1);
  const HashFamily l2(10, 42, 2);
  int same = 0;
  for (u32 j = 0; j < 10; ++j) {
    if (l1[j].a == l2[j].a && l1[j].b == l2[j].b) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(HashFamily, MembersAreDistinct) {
  const HashFamily fam(200, 7, 1);
  std::set<std::pair<u64, u64>> pairs;
  for (u32 j = 0; j < fam.size(); ++j) pairs.insert({fam[j].a, fam[j].b});
  EXPECT_EQ(pairs.size(), 200u);
}

TEST(HashFamily, CoefficientAIsNeverZero) {
  const HashFamily fam(500, 3, 1);
  for (u32 j = 0; j < fam.size(); ++j) {
    EXPECT_GE(fam[j].a, 1u);
    EXPECT_LT(fam[j].a, kP);
    EXPECT_LT(fam[j].b, kP);
  }
}

TEST(HashFamily, Validation) {
  EXPECT_THROW(HashFamily(0, 1, 1), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::core
