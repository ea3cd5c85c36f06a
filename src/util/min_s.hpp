#pragma once
// The s-smallest selection shared by the serial shingler
// (core::min_s_images) and the fused device shingling kernel
// (device::segmented_min_s), so both reduce a list to the same minima.

#include <limits>
#include <span>

#include "util/common.hpp"

namespace gpclust::util {

/// Pad value of a minima slot no item filled (core::kNoValue).
inline constexpr u64 kMinSPad = std::numeric_limits<u64>::max();

/// Writes the out.size() smallest of {key(x) : x in items} into `out`,
/// ascending (duplicates kept), padding with kMinSPad when there are fewer
/// items. An insertion into the sorted s-prefix per item: the paper's
/// choice for the small s used in practice.
template <typename T, typename Key>
void min_s_keys(std::span<const T> items, const Key& key, std::span<u64> out) {
  const std::size_t s = out.size();
  for (u64& slot : out) slot = kMinSPad;
  for (const T& x : items) {
    const u64 value = key(x);
    if (value >= out[s - 1]) continue;
    std::size_t pos = s - 1;
    while (pos > 0 && out[pos - 1] > value) {
      out[pos] = out[pos - 1];
      --pos;
    }
    out[pos] = value;
  }
}

}  // namespace gpclust::util
