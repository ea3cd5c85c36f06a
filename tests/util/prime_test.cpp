#include "util/prime.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gpclust::util {
namespace {

TEST(Prime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(100));
}

TEST(Prime, Mersenne61IsPrime) {
  EXPECT_TRUE(is_prime(kMersenne61));
  EXPECT_EQ(kMersenne61, 2305843009213693951ULL);
}

TEST(Prime, KnownLargePrimes) {
  EXPECT_TRUE(is_prime(1000000007ULL));
  EXPECT_TRUE(is_prime(1000000000039ULL));
  EXPECT_FALSE(is_prime(1000000007ULL * 3));
}

TEST(Prime, CarmichaelNumbersAreComposite) {
  // Classic Fermat pseudoprimes must be rejected.
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(1105));
  EXPECT_FALSE(is_prime(41041));
  EXPECT_FALSE(is_prime(825265));
}

TEST(Prime, NextPrimeFindsSmallest) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(90), 97u);
  EXPECT_EQ(next_prime(1000000), 1000003u);
}

TEST(Prime, NextPrimeOfPrimeIsItself) {
  for (u64 p : {5ULL, 7ULL, 1000000007ULL}) EXPECT_EQ(next_prime(p), p);
}

TEST(Prime, MulmodMatchesWideArithmetic) {
  const u64 m = kMersenne61;
  EXPECT_EQ(mulmod(2, 3, 7), 6u);
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
  EXPECT_EQ(mulmod(m - 1, 2, m), m - 2);
}

TEST(Prime, PowmodKnownValues) {
  EXPECT_EQ(powmod(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(powmod(5, 0, 13), 1u);
  // Fermat's little theorem: a^(p-1) = 1 mod p.
  EXPECT_EQ(powmod(123456789ULL, kMersenne61 - 1, kMersenne61), 1u);
}

/// (a * v + b) mod 2^61-1 by 128-bit division.
u64 affine_reference(u64 a, u64 b, u64 v) {
  const __uint128_t p = kMersenne61;
  return static_cast<u64>(
      (static_cast<__uint128_t>(a) * (v % kMersenne61) % p + b) % p);
}

TEST(Prime, MersenneAffineMatchesDivisionOnEdgeCases) {
  const u64 p = kMersenne61;
  const u64 vs[] = {0, 1, p - 1, p, p + 1, u64{1} << 61, ~u64{0}};
  const u64 as[] = {1, p - 1};
  const u64 bs[] = {0, p - 1};
  for (u64 v : vs) {
    for (u64 a : as) {
      for (u64 b : bs) {
        EXPECT_EQ(affine_mod_mersenne61(a, b, v), affine_reference(a, b, v))
            << "a=" << a << " b=" << b << " v=" << v;
      }
    }
  }
}

TEST(Prime, MersenneAffineMatchesDivisionOnRandomTriples) {
  const u64 p = kMersenne61;
  Xoshiro256 rng(61);
  u64 mismatches = 0;
  for (int i = 0; i < 1'200'000; ++i) {
    const u64 a = rng.next() % p;
    const u64 b = rng.next() % p;
    // Mix full-width ids with ids just around multiples of p.
    const u64 raw = rng.next();
    const u64 v = (i % 4 == 0) ? p * (raw % 8) + raw % 3 - 1 : raw;
    if (affine_mod_mersenne61(a, b, v) != affine_reference(a, b, v)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace gpclust::util
