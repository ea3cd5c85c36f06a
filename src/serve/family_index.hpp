#pragma once
// FamilyIndex — the query engine of the serving layer (DESIGN.md §10):
// classifies one ORF against a persisted family store by k-mer seeding
// against the family representatives (the store's sorted postings index)
// followed by exact striped SIMD Smith-Waterman scoring of the
// best-seeded representatives. The whole path is host-only and
// deterministic: a query's result depends on nothing but the query and
// the store, which is what makes QueryService's answers bit-identical
// across worker-pool sizes.

#include <span>
#include <string_view>
#include <vector>

#include "align/query_profile.hpp"
#include "align/simd.hpp"
#include "align/smith_waterman.hpp"
#include "seq/sketch.hpp"
#include "store/snapshot.hpp"
#include "util/common.hpp"

namespace gpclust::serve {

class BucketIndex;

struct ClassifyParams {
  /// Representatives sharing at least this many distinct query k-mers are
  /// candidates (same role as align::KmerIndexConfig::min_shared_kmers).
  u32 min_shared_kmers = 2;

  /// Smith-Waterman is run against at most this many candidates, best
  /// seeded first ((shared k-mers desc, rep asc) — deterministic).
  std::size_t max_candidates = 8;

  /// Assignment criterion, mirroring the homology-graph edge criterion:
  /// score >= max(min_score, min_score_per_residue * min(|query|, |rep|)).
  int min_score = 40;
  double min_score_per_residue = 1.2;

  align::AlignmentParams alignment;

  void validate() const {
    GPCLUST_CHECK(min_shared_kmers >= 1, "min_shared_kmers must be >= 1");
    GPCLUST_CHECK(max_candidates >= 1, "max_candidates must be >= 1");
    alignment.validate();
  }
};

/// Why a query did or did not get a family.
enum class ClassifyOutcome {
  Assigned,        ///< best alignment cleared the score criterion
  NoSeeds,         ///< no representative shared enough k-mers
  BelowThreshold,  ///< aligned, but no candidate cleared the criterion
  InvalidQuery,    ///< empty or non-protein residues
};
std::string_view classify_outcome_name(ClassifyOutcome outcome);

constexpr u32 kNoFamily = 0xFFFFFFFFu;

struct ClassifyResult {
  ClassifyOutcome outcome = ClassifyOutcome::NoSeeds;
  u32 family = kNoFamily;      ///< assigned family (kNoFamily unless Assigned)
  u32 best_rep = kNoFamily;    ///< sequence index of the winning representative
  int score = 0;               ///< its Smith-Waterman score
  u32 shared_kmers = 0;        ///< its seed count
  u32 num_candidates = 0;      ///< representatives that met the seed floor
  u32 num_alignments = 0;      ///< Smith-Waterman score passes run

  friend bool operator==(const ClassifyResult&,
                         const ClassifyResult&) = default;
};

/// Per-call scratch a caller thread owns: the LRU over representative
/// profiles (the expensive reusable artifact) plus flat buffers reused
/// across queries. One per worker; never shared.
class ClassifyScratch {
 public:
  explicit ClassifyScratch(std::size_t profile_cache_capacity = 64)
      : profiles_(profile_cache_capacity) {}

  const align::LruQueryProfileCache& profiles() const { return profiles_; }
  const align::SimdCounters& simd() const { return simd_; }

 private:
  friend class FamilyIndex;
  align::LruQueryProfileCache profiles_;
  align::SimdCounters simd_;
  std::vector<u64> query_codes_;
  /// One rep per seed hit: a shared k-mer (postings scan) or a band-key
  /// collision (bucket table).
  std::vector<u32> rep_hits_;
  std::vector<u8> encoded_query_;
  std::vector<u64> query_sig_;  ///< bucket table: the query's sketch
};

/// One Smith-Waterman-scored candidate representative. Trivially copyable
/// on purpose: this is the wire format of the sharded serving tier (a
/// shard returns its scored candidates, the router merges them).
struct ScoredCandidate {
  u32 rep = 0;     ///< index into FamilyStore::representatives
  u32 shared = 0;  ///< distinct query k-mers shared with the rep
  i32 score = 0;   ///< exact Smith-Waterman score against the query

  friend bool operator==(const ScoredCandidate&,
                         const ScoredCandidate&) = default;
};
static_assert(sizeof(ScoredCandidate) == 12, "sharded wire layout is fixed");

/// The seed+score half of classification over one postings (sub)set:
/// everything classify() computes before the best-family decision.
struct CandidateScores {
  bool invalid = false;    ///< empty or non-protein query
  u32 num_candidates = 0;  ///< reps meeting the seed floor (pre-truncation)
  /// The top `max_candidates` candidates by (shared desc, rep asc), each
  /// scored with exact Smith-Waterman. A subset of the floor-meeting reps.
  std::vector<ScoredCandidate> scored;
};

/// Read-only view over a loaded FamilyStore. Thread-safe for concurrent
/// classify() calls as long as each caller passes its own scratch.
class FamilyIndex {
 public:
  /// The store must outlive the index (the index keeps a reference).
  explicit FamilyIndex(const store::FamilyStore& store);

  const store::FamilyStore& store() const { return store_; }

  /// Classifies one query ORF. Deterministic: equal queries yield equal
  /// results regardless of scratch state or thread. Exactly
  /// `decide(query, params, score_candidates(query, params, scratch))`.
  ClassifyResult classify(std::string_view query, const ClassifyParams& params,
                          ClassifyScratch& scratch) const;

  /// Seed counting + candidate truncation + Smith-Waterman scoring against
  /// a postings subset (`postings` must be sorted by (code, rep) — any
  /// rep-partitioned filtering of the store's postings qualifies, and the
  /// full store postings are the default). This is the per-shard half of
  /// the sharded serving tier (DESIGN.md §12).
  CandidateScores score_candidates(
      std::string_view query, const ClassifyParams& params,
      ClassifyScratch& scratch,
      std::span<const seq::KmerPosting> postings) const;
  CandidateScores score_candidates(std::string_view query,
                                   const ClassifyParams& params,
                                   ClassifyScratch& scratch) const {
    return score_candidates(query, params, scratch,
                            std::span<const seq::KmerPosting>(store_.postings));
  }

  /// The same seed+truncate+score contract over the banded bucket table:
  /// candidates come from `buckets` (bucket-collision nomination + exact
  /// shared-k-mer recount) instead of the postings scan, then flow through
  /// the identical floor / ordering / truncation / Smith-Waterman stages.
  /// `buckets` must be built over this index's store (or a rep subset of
  /// it, for the sharded tier).
  CandidateScores score_candidates(std::string_view query,
                                   const ClassifyParams& params,
                                   ClassifyScratch& scratch,
                                   const BucketIndex& buckets) const;

  /// classify() over the banded bucket table:
  /// `decide(query, params, score_candidates(query, params, scratch, buckets))`.
  ClassifyResult classify(std::string_view query, const ClassifyParams& params,
                          ClassifyScratch& scratch,
                          const BucketIndex& buckets) const;

  /// The decision half: picks the best family from a scored candidate set.
  /// Order-independent in `scores.scored` (the winner key — qualifies
  /// desc, score desc, family asc, rep asc — is a strict total order), so
  /// the router of the sharded tier can feed it the re-truncated merge of
  /// per-shard candidate lists and get the single-node answer bit for bit.
  ClassifyResult decide(std::string_view query, const ClassifyParams& params,
                        const CandidateScores& scores) const;

 private:
  /// Step 1 of score_candidates, shared by both candidate generators:
  /// validity check + the query's sorted distinct k-mer codes into
  /// `scratch.query_codes_`. Returns false (and flags `result`) on an
  /// invalid query.
  bool prepare_query_codes(std::string_view query, ClassifyScratch& scratch,
                           CandidateScores& result) const;

  /// Steps 3-4, shared by both candidate generators: (shared desc, rep
  /// asc) sort, truncation to max_candidates, and exact Smith-Waterman
  /// scoring of the survivors into `result.scored`.
  void score_top_candidates(std::string_view query,
                            const ClassifyParams& params,
                            ClassifyScratch& scratch,
                            std::vector<std::pair<u32, u32>>& candidates,
                            CandidateScores& result) const;

  const store::FamilyStore& store_;
};

}  // namespace gpclust::serve
