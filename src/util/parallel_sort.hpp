#pragma once
// Thread-pool merge sort (the k-mer postings builder runs on it), and the
// pairwise sorted-run merge it shares with the device tuple aggregation's
// host merge. Falls back to std::sort when the pool has a single worker
// or the input is small.

#include <algorithm>
#include <vector>

#include "util/thread_pool.hpp"

namespace gpclust::util {

/// Merges the sorted runs data[bounds[i] .. bounds[i+1]) into one sorted
/// range by pairwise inplace_merge rounds (sequential across rounds; the
/// merges within a round are independent but memory-bound anyway).
/// `bounds` starts at 0, ends at data.size() and is non-decreasing.
template <typename T>
void merge_sorted_runs(std::vector<T>& data, std::vector<std::size_t> bounds) {
  while (bounds.size() > 2) {
    std::vector<std::size_t> next = {0};
    for (std::size_t i = 2; i < bounds.size(); i += 2) {
      std::inplace_merge(
          data.begin() + static_cast<std::ptrdiff_t>(bounds[i - 2]),
          data.begin() + static_cast<std::ptrdiff_t>(bounds[i - 1]),
          data.begin() + static_cast<std::ptrdiff_t>(bounds[i]));
      next.push_back(bounds[i]);
    }
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

/// Sorts `data` ascending using up to pool.size() workers. Stable: no.
template <typename T>
void parallel_sort(std::vector<T>& data, ThreadPool& pool,
                   std::size_t min_parallel_size = 1 << 16) {
  const std::size_t n = data.size();
  if (pool.size() <= 1 || n < min_parallel_size) {
    std::sort(data.begin(), data.end());
    return;
  }

  // Sort contiguous chunks in parallel, then merge pairwise.
  const std::size_t num_chunks = std::min<std::size_t>(pool.size(), 64);
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<std::size_t> bounds = {0};
  while (bounds.back() < n) {
    bounds.push_back(std::min(n, bounds.back() + chunk));
  }

  pool.parallel_for(0, bounds.size() - 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
                data.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]));
    }
  });
  merge_sorted_runs(data, std::move(bounds));
}

/// parallel_sort on `workers`' pool, or std::sort when they run inline.
template <typename T>
void parallel_sort(std::vector<T>& data, const Workers& workers) {
  if (workers.pool() == nullptr) {
    std::sort(data.begin(), data.end());
  } else {
    parallel_sort(data, *workers.pool());
  }
}

}  // namespace gpclust::util
