#pragma once
// Prime utilities for the min-wise hash family. The shingling permutation
// v -> (A*v + B) mod P requires P to be a prime larger than the universe
// of vertex ids (paper §III-B: "P is a big prime number"); every hash
// family in the library uses P = 2^61 - 1.

#include "util/common.hpp"

namespace gpclust::util {

/// 2^61 - 1, a Mersenne prime large enough for any vertex/shingle universe
/// used in this library. Default modulus of the min-wise hash family.
inline constexpr u64 kMersenne61 = (1ULL << 61) - 1;

/// (a * v + b) mod kMersenne61 for a, b < kMersenne61 and any v: the affine
/// permutation behind the shingling family (core::AffineHash) and the
/// sketch family (seq::SketchHashes). Reduces by fold-and-subtract
/// (2^61 = 1 mod P) instead of a 128-bit division.
inline u64 affine_mod_mersenne61(u64 a, u64 b, u64 v) {
  constexpr u64 p = kMersenne61;
  v = (v & p) + (v >> 61);  // < 2^61 + 8
  if (v >= p) v -= p;
  const __uint128_t prod = static_cast<__uint128_t>(a) * v;  // < 2^122
  u64 r = (static_cast<u64>(prod) & p) + static_cast<u64>(prod >> 61) + b;
  r = (r & p) + (r >> 61);  // r was < 3 * 2^61, so now <= p + 2
  return r >= p ? r - p : r;
}

/// Deterministic Miller-Rabin, exact for all 64-bit inputs.
bool is_prime(u64 n);

/// Smallest prime >= n. Requires n <= kMersenne61 (always satisfiable).
u64 next_prime(u64 n);

/// (a * b) mod m without overflow for m < 2^63.
u64 mulmod(u64 a, u64 b, u64 m);

/// (base ^ exp) mod m.
u64 powmod(u64 base, u64 exp, u64 m);

}  // namespace gpclust::util
