#include "align/kmer_index.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/trace.hpp"
#include "seq/sketch.hpp"
#include "util/thread_pool.hpp"

namespace gpclust::align {

namespace {

static_assert(sizeof(PairSeed) == 16);

/// Splits the (code, id)-sorted postings into up to `parts` contiguous
/// ranges that never cut a code run. Returns parts + 1 boundaries.
std::vector<std::size_t> split_at_code_runs(
    const std::vector<seq::KmerPosting>& postings, std::size_t parts) {
  const std::size_t n = postings.size();
  std::vector<std::size_t> bounds(parts + 1, n);
  bounds[0] = 0;
  for (std::size_t j = 1; j < parts; ++j) {
    std::size_t b = std::max(bounds[j - 1], j * n / parts);
    while (b > 0 && b < n && postings[b].code == postings[b - 1].code) ++b;
    bounds[j] = b;
  }
  return bounds;
}

/// Calls fn(run) for every run of equal pair key in the (key, diag)-
/// sorted `seeds` that holds at least `min_shared` seeds.
template <typename Fn>
void for_each_promoted_pair(std::span<const PairSeed> seeds,
                            std::size_t min_shared, Fn&& fn) {
  for (std::size_t lo = 0; lo < seeds.size();) {
    std::size_t hi = lo + 1;
    while (hi < seeds.size() && seeds[hi].key == seeds[lo].key) ++hi;
    if (hi - lo >= min_shared) fn(seeds.subspan(lo, hi - lo));
    lo = hi;
  }
}

/// u64 counter bumped from several workers at once.
u64 fetch_add(u64& slot, u64 delta) {
  return std::atomic_ref<u64>(slot).fetch_add(delta,
                                              std::memory_order_relaxed);
}

}  // namespace

std::size_t sort_pair_seeds(std::span<PairSeed> seeds,
                            std::size_t min_shared) {
  std::sort(seeds.begin(), seeds.end());
  std::size_t promoted = 0;
  for_each_promoted_pair(seeds, min_shared,
                         [&](std::span<const PairSeed>) { ++promoted; });
  return promoted;
}

void promote_pair_seeds(std::span<const PairSeed> seeds,
                        std::size_t min_shared,
                        std::span<CandidatePair> out) {
  auto next = out.begin();
  for_each_promoted_pair(seeds, min_shared, [&](std::span<const PairSeed> run) {
    i32 mode_diag = run.front().diag;
    std::size_t mode_len = 0;
    for (std::size_t i = 0; i < run.size();) {
      std::size_t j = i;
      while (j < run.size() && run[j].diag == run[i].diag) ++j;
      if (j - i > mode_len) {
        mode_len = j - i;
        mode_diag = run[i].diag;
      }
      i = j;
    }
    *next++ = {static_cast<u32>(run.front().key >> 32),
               static_cast<u32>(run.front().key & 0xffffffffu),
               static_cast<u32>(run.size()), mode_diag};
  });
}

std::vector<CandidatePair> find_candidate_pairs(
    const seq::SequenceSet& sequences, const KmerIndexConfig& config,
    std::size_t* peak_candidate_bytes, obs::Tracer* tracer,
    std::size_t num_threads) {
  GPCLUST_CHECK(config.k >= 2 && config.k <= 12, "k must be in [2, 12]");
  GPCLUST_CHECK(config.min_shared_kmers >= 1,
                "min_shared_kmers must be positive");
  const util::Workers workers(num_threads);
  const std::size_t n = sequences.size();
  // Live-buffer high-water mark, updated at the end of each stage over
  // the buffers alive then (size-based, deterministic).
  std::size_t peak_bytes = 0;
  const auto note_peak = [&peak_bytes](std::size_t bytes) {
    peak_bytes = std::max(peak_bytes, bytes);
  };

  // The masked A * A^T product, row-partitioned (the PASTIS layout): the
  // per-seed record of a pair (a, b), a < b, lands in bucket a of one
  // exactly-sized array, so every bucket sorts and scans on its own.
  // Bucket a is seeds[offsets[a] .. offsets[a + 1]); `cursor` is per-bucket
  // scratch (scatter slots, then emitted-pair counts and offsets).
  std::vector<u64> offsets(n + 1, 0);
  std::vector<u64> cursor(n + 1, 0);
  const std::size_t bucket_bytes = 2 * (n + 1) * sizeof(u64);

  std::vector<seq::KmerPosting> postings;
  {
    obs::HostSpan span(tracer, "homology.seed.postings");
    postings = seq::build_kmer_postings(
        n,
        [&sequences](std::size_t i) -> std::string_view {
          return sequences[i].residues;
        },
        config.k, workers);
  }
  const std::size_t postings_bytes =
      postings.capacity() * sizeof(seq::KmerPosting);
  note_peak(postings_bytes + bucket_bytes);

  obs::HostSpan span(tracer, "homology.seed.pairs");
  // Code runs of 2 .. max_kmer_occurrences postings seed pairs; posting x
  // of a run seeds one record per later posting y of the run (the run is
  // id-sorted, so id_x < id_y). A run never straddles two workers.
  const auto runs = split_at_code_runs(postings, workers.size());
  const auto for_each_seeding_posting = [&](auto&& fn) {
    workers.parallel_for(0, runs.size() - 1, [&](std::size_t lo,
                                                 std::size_t hi) {
      for (std::size_t i = runs[lo]; i < runs[hi];) {
        std::size_t j = i + 1;
        while (j < runs[hi] && postings[j].code == postings[i].code) ++j;
        if (j - i >= 2 && j - i <= config.max_kmer_occurrences) {
          for (std::size_t x = i; x + 1 < j; ++x) fn(x, j);
        }
        i = j;
      }
    });
  };

  // Count each bucket's records, then place the buckets.
  for_each_seeding_posting([&](std::size_t x, std::size_t run_end) {
    fetch_add(offsets[postings[x].id + 1], run_end - x - 1);
  });
  for (std::size_t a = 0; a < n; ++a) offsets[a + 1] += offsets[a];
  const u64 num_seeds = offsets[n];
  std::copy(offsets.begin(), offsets.end(), cursor.begin());

  // Scatter: each posting reserves its records' slots in its bucket. Slot
  // order inside a bucket depends on scheduling; the bucket sort below
  // keys on every field, so the sorted bucket does not.
  const std::unique_ptr<PairSeed[]> seeds(new PairSeed[num_seeds]);
  for_each_seeding_posting([&](std::size_t x, std::size_t run_end) {
    const seq::KmerPosting& px = postings[x];
    u64 slot = fetch_add(cursor[px.id], run_end - x - 1);
    for (std::size_t y = x + 1; y < run_end; ++y) {
      seeds[slot++] = {(static_cast<u64>(px.id) << 32) | postings[y].id,
                       static_cast<i32>(px.pos) -
                           static_cast<i32>(postings[y].pos)};
    }
  });
  note_peak(postings_bytes + bucket_bytes + num_seeds * sizeof(PairSeed));
  obs::add_counter(tracer, "homology_seed_records", num_seeds);
  std::vector<seq::KmerPosting>().swap(postings);

  // Buckets dealt out to the workers by record count.
  const std::size_t parts = workers.size();
  std::vector<std::size_t> bucket_bounds(parts + 1, n);
  bucket_bounds[0] = 0;
  for (std::size_t j = 1; j < parts; ++j) {
    const auto it = std::lower_bound(offsets.begin(), offsets.begin() + n,
                                     j * num_seeds / parts);
    bucket_bounds[j] = std::max(bucket_bounds[j - 1],
                                static_cast<std::size_t>(it - offsets.begin()));
  }
  const auto for_each_bucket = [&](auto&& fn) {
    workers.parallel_for(0, parts, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t a = bucket_bounds[lo]; a < bucket_bounds[hi]; ++a) {
        fn(a, std::span<PairSeed>(seeds.get() + offsets[a],
                                  seeds.get() + offsets[a + 1]));
      }
    });
  };

  // Sort each bucket by (b, diag) and count the pairs it promotes.
  for_each_bucket([&](std::size_t a, std::span<PairSeed> bucket) {
    cursor[a] = sort_pair_seeds(bucket, config.min_shared_kmers);
  });
  u64 num_pairs = 0;
  for (std::size_t a = 0; a < n; ++a) {
    num_pairs += std::exchange(cursor[a], num_pairs);
  }

  // Promote: buckets land in a order, each already b-ordered, so `pairs`
  // is (a, b)-ordered.
  std::vector<CandidatePair> pairs(num_pairs);
  for_each_bucket([&](std::size_t a, std::span<PairSeed> bucket) {
    promote_pair_seeds(bucket, config.min_shared_kmers,
                       std::span<CandidatePair>(pairs).subspan(cursor[a]));
  });
  note_peak(bucket_bytes + num_seeds * sizeof(PairSeed) +
            pairs.size() * sizeof(CandidatePair));
  if (peak_candidate_bytes != nullptr) *peak_candidate_bytes = peak_bytes;
  return pairs;
}

}  // namespace gpclust::align
