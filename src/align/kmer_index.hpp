#pragma once
// Candidate-pair generation for homology-graph construction. pGraph uses
// suffix trees to find promising pairs via maximal exact matches [14];
// this substitute indexes fixed-length k-mers and promotes a pair when the
// two sequences share at least `min_shared_kmers` distinct k-mers — the
// same "exact-match seed" filtering idea with a simpler, well-understood
// data structure (documented substitution, DESIGN.md §1).

#include <span>
#include <vector>

#include "seq/sequence.hpp"
#include "util/common.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::align {

struct KmerIndexConfig {
  std::size_t k = 5;                  ///< k-mer length (residues)
  std::size_t min_shared_kmers = 2;   ///< seeds required to promote a pair
  /// k-mers occurring in more than this many sequences are ignored
  /// (low-complexity / repeat masking, keeps candidate lists near-linear).
  std::size_t max_kmer_occurrences = 200;
};

struct CandidatePair {
  u32 a;
  u32 b;
  u32 shared_kmers;
  /// Representative seed diagonal (first occurrence of a shared seed:
  /// pos_in_a - pos_in_b); the mode over shared seeds, smallest on ties.
  /// Anchors the optional ungapped x-drop prefilter; 0 when unknown.
  i32 diag = 0;

  friend bool operator==(const CandidatePair&, const CandidatePair&) = default;
};

/// One shared seed between a pair, packed for sort-based aggregation: the
/// per-seed record the exact seed stage promotes pairs from, both here and
/// in ingest's incremental index (ingest/ingest_session).
struct PairSeed {
  u64 key;   ///< (a << 32) | b, a < b
  i32 diag;  ///< pos_in_a - pos_in_b of the seed's first occurrences

  friend auto operator<=>(const PairSeed&, const PairSeed&) = default;
};

/// Sorts `seeds` by (key, diag) and returns the number of pairs they
/// promote: runs of one key holding at least `min_shared` seeds.
std::size_t sort_pair_seeds(std::span<PairSeed> seeds, std::size_t min_shared);

/// Writes one CandidatePair per pair the sorted `seeds` promote to the
/// front of `out` (which holds at least the sort_pair_seeds count),
/// key-ascending and so (a, b)-ordered: the shared count is the run
/// length, the diagonal the run's mode (smallest on ties, which the
/// ascending sort yields for free).
void promote_pair_seeds(std::span<const PairSeed> seeds,
                        std::size_t min_shared, std::span<CandidatePair> out);

/// Builds the k-mer index over `sequences` and reports all promising pairs
/// (a < b), (a, b)-ordered, with their shared-seed counts. When
/// `peak_candidate_bytes` is non-null it receives the high-water mark of
/// the stage's live buffers (postings, bucket offsets, per-seed pair
/// records, emitted pairs), in bytes — size-based and deterministic, so
/// bench_graph_scale's memory-budget comparison is measured from the
/// actual buffers rather than estimated. `tracer` (optional) receives the
/// "homology.seed.postings" / "homology.seed.pairs" spans and the
/// "homology_seed_records" counter. `num_threads` follows
/// HomologyGraphConfig::num_threads (0: default pool, 1: serial); the
/// result does not depend on it.
std::vector<CandidatePair> find_candidate_pairs(
    const seq::SequenceSet& sequences, const KmerIndexConfig& config = {},
    std::size_t* peak_candidate_bytes = nullptr,
    obs::Tracer* tracer = nullptr, std::size_t num_threads = 0);

}  // namespace gpclust::align
