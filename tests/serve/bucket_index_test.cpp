// serve::BucketIndex — the banded bucket table's contract against the
// postings scan, the exact candidate generator (DESIGN.md §13):
//
//   * banding: every surviving candidate carries the exact postings-scan
//     shared count and Smith-Waterman score (subset-with-exact-counts),
//     and assignment recall against the postings scan's assigned set
//     stays >= 0.95 on mutated family members;
//   * sharding: per-shard bucket tables partition the single-node
//     candidate set, so the sharded tier at --bands=N is digest-identical
//     to single-node banded serving, fail-over included;
//   * signatures: build-time (postings-derived) and serve-time
//     (residue-derived) sketches of the same sequence are bit-identical,
//     and parameter validation is typed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "serve/bucket_index.hpp"
#include "serve/family_index.hpp"
#include "serve/sharded_service.hpp"
#include "store/signature.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace gpclust::serve {
namespace {

seq::SyntheticMetagenome make_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 8;
  config.min_members = 3;
  config.max_members = 10;
  config.num_background_orfs = 4;
  config.seed = 17;
  return seq::generate_metagenome(config);
}

/// 8% point substitutions over the standard residues — the "new ORF from
/// a known family" query shape of the recall measurements.
std::string mutate(std::string_view residues, u64 seed) {
  util::SplitMix64 rng(seed);
  std::string out(residues);
  for (char& c : out) {
    if (rng.next() % 100 < 8) {
      c = seq::kResidues[rng.next() % seq::kNumStandardResidues];
    }
  }
  return out;
}

struct Fixture {
  seq::SyntheticMetagenome mg = make_workload();
  store::FamilyStore store =
      store::build_family_store(mg.sequences, mg.family);
  FamilyIndex index{store};
  ClassifyParams params;

  /// Member sequences, mutated members, plus the taxonomy edge cases.
  std::vector<std::string> queries() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < store.num_sequences(); ++i) {
      out.emplace_back(store.sequence(i));
      out.push_back(mutate(store.sequence(i), 0xb0c4e7 + i));
    }
    out.emplace_back("");                                // InvalidQuery
    out.emplace_back("PROTE1N");                         // InvalidQuery
    out.emplace_back(std::string(store.kmer_k - 1, 'A'));  // sub-k: NoSeeds
    out.emplace_back("ACD");                             // NoSeeds
    return out;
  }
};

/// The banding these tests probe: 32 one-row bands over the default
/// 32-hash signatures.
const BucketIndexParams kBanding{32, 1};

void expect_scores_equal(const CandidateScores& a, const CandidateScores& b,
                         const std::string& label) {
  EXPECT_EQ(a.invalid, b.invalid) << label;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << label;
  EXPECT_EQ(a.scored, b.scored) << label;
}

// ---------------------------------------------------------------------------
// Banding: exactness of survivors + the recall floor
// ---------------------------------------------------------------------------

TEST(BucketIndex, BandedCandidatesAreASubsetWithExactCounts) {
  Fixture fx;
  // No truncation: every floor-meeting postings candidate gets scored, so
  // subset checks see the full ground-truth list.
  fx.params.max_candidates = 1u << 20;
  const BucketIndex buckets(fx.store, kBanding);
  ClassifyScratch a;
  ClassifyScratch b;
  for (const std::string& q : fx.queries()) {
    const auto truth = fx.index.score_candidates(q, fx.params, a);
    const auto banded = fx.index.score_candidates(q, fx.params, b, buckets);
    EXPECT_EQ(truth.invalid, banded.invalid) << q;
    EXPECT_LE(banded.num_candidates, truth.num_candidates) << q;
    for (const ScoredCandidate& cand : banded.scored) {
      // Same rep, same exact shared count, same exact SW score.
      const auto it =
          std::find_if(truth.scored.begin(), truth.scored.end(),
                       [&](const ScoredCandidate& t) {
                         return t.rep == cand.rep;
                       });
      ASSERT_NE(it, truth.scored.end()) << q << " rep " << cand.rep;
      EXPECT_EQ(*it, cand) << q;
    }
  }
}

TEST(BucketIndex, DefaultBandingRecallFloorOnMutatedMembers) {
  Fixture fx;
  const BucketIndex buckets(fx.store, kBanding);
  ClassifyScratch a;
  ClassifyScratch b;
  std::size_t assigned = 0;
  std::size_t recalled = 0;
  for (std::size_t i = 0; i < fx.store.num_sequences(); ++i) {
    const std::string q = mutate(fx.store.sequence(i), 0x5eca11 + i);
    const auto truth = fx.index.classify(q, fx.params, a);
    if (truth.outcome != ClassifyOutcome::Assigned) continue;
    ++assigned;
    const auto banded = fx.index.classify(q, fx.params, b, buckets);
    if (banded.outcome == ClassifyOutcome::Assigned &&
        banded.family == truth.family) {
      ++recalled;
    }
  }
  ASSERT_GT(assigned, 0u);
  const double recall =
      static_cast<double>(recalled) / static_cast<double>(assigned);
  EXPECT_GE(recall, 0.95) << recalled << " of " << assigned;
}

// ---------------------------------------------------------------------------
// Sharding: per-shard tables partition the single-node candidate set
// ---------------------------------------------------------------------------

TEST(BucketIndex, ShardSubsetsPartitionTheGlobalCandidateSet) {
  Fixture fx;
  fx.params.max_candidates = 1u << 20;
  const BucketIndex global(fx.store, kBanding);
  const std::size_t num_shards = 3;
  std::vector<BucketIndex> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::vector<u32> reps;
    for (u32 r = 0; r < fx.store.representatives.size(); ++r) {
      if (shard_of_rep(r, num_shards) == s) reps.push_back(r);
    }
    shards.emplace_back(fx.store, kBanding, std::span<const u32>(reps));
  }
  ClassifyScratch scratch;
  for (const std::string& q : fx.queries()) {
    const auto whole = fx.index.score_candidates(q, fx.params, scratch, global);
    CandidateScores merged;
    merged.invalid = whole.invalid;
    for (const BucketIndex& shard : shards) {
      const auto part = fx.index.score_candidates(q, fx.params, scratch, shard);
      merged.num_candidates += part.num_candidates;
      merged.scored.insert(merged.scored.end(), part.scored.begin(),
                           part.scored.end());
    }
    std::sort(merged.scored.begin(), merged.scored.end(),
              [](const ScoredCandidate& x, const ScoredCandidate& y) {
                return std::pair(y.shared, x.rep) < std::pair(x.shared, y.rep);
              });
    expect_scores_equal(whole, merged, q);
  }
}

TEST(BucketIndex, ShardedBandedWithFailoverMatchesSingleNodeBucketed) {
  Fixture fx;
  const auto queries = fx.queries();
  const BucketIndex buckets(fx.store, kBanding);
  ClassifyScratch scratch;
  std::vector<ClassifyResult> expected;
  for (const auto& q : queries) {
    expected.push_back(fx.index.classify(q, fx.params, scratch, buckets));
  }
  ShardedConfig config;
  config.num_ranks = 4;
  config.replication = 2;
  config.bucket = kBanding;
  config.kill_rank = 1;
  config.kill_after_requests = 5;
  config.resilience.mode = fault::ResilienceMode::Fallback;
  ShardedStats stats;
  const auto results =
      sharded_classify_batch(fx.store, queries, config, &stats);
  EXPECT_EQ(results_digest(results), results_digest(expected));
  EXPECT_EQ(stats.rank_failures, 1u);
}

// ---------------------------------------------------------------------------
// Signatures + parameter validation
// ---------------------------------------------------------------------------

TEST(BucketIndex, BuildTimeAndServeTimeSketchesAgree) {
  // A rep's persisted signature (postings-derived at build time) must be
  // bit-identical to sketching its residues the way the serve tier
  // sketches a query — otherwise a rep could miss its own buckets.
  Fixture fx;
  const store::SignatureHashes hashes(fx.store.sig_num_hashes,
                                      fx.store.sig_seed);
  for (std::size_t r = 0; r < fx.store.representatives.size(); ++r) {
    const std::string_view residues =
        fx.store.sequence(fx.store.representatives[r]);
    std::vector<u64> codes;
    const std::size_t k = fx.store.kmer_k;
    for (std::size_t pos = 0; pos + k <= residues.size(); ++pos) {
      u64 code = 0;
      for (std::size_t j = 0; j < k; ++j) {
        code = code * seq::kNumResidues + seq::residue_index(residues[pos + j]);
      }
      codes.push_back(code);
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    std::vector<u64> sketch(fx.store.sig_num_hashes);
    hashes.sketch(codes, sketch);
    const std::span<const u64> stored =
        std::span<const u64>(fx.store.signatures)
            .subspan(r * fx.store.sig_num_hashes, fx.store.sig_num_hashes);
    EXPECT_TRUE(std::equal(sketch.begin(), sketch.end(), stored.begin(),
                           stored.end()))
        << "rep " << r;
  }
}

TEST(BucketIndex, RepsShorterThanKStayOutOfEveryBucket) {
  seq::SequenceSet sequences;
  sequences.push_back({"long", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"});
  sequences.push_back({"tiny", "MKT"});  // shorter than k = 5
  const auto store = store::build_family_store(sequences, {0, 1});
  // The short rep's signature is all-empty...
  const std::size_t tiny_rep = 1;
  ASSERT_EQ(store.representatives[tiny_rep], 1u);
  for (u64 slot : std::span<const u64>(store.signatures)
                      .subspan(tiny_rep * store.sig_num_hashes,
                               store.sig_num_hashes)) {
    EXPECT_EQ(slot, store::kEmptySignatureSlot);
  }
  // ...and it never becomes a candidate, banded or scanned, even for
  // itself.
  const FamilyIndex index(store);
  ClassifyScratch scratch;
  const BucketIndex buckets(
      store, BucketIndexParams{store::kDefaultSignatureHashes, 1});
  for (const ClassifyResult& result :
       {index.classify("MKT", {}, scratch),
        index.classify("MKT", {}, scratch, buckets)}) {
    EXPECT_EQ(result.outcome, ClassifyOutcome::NoSeeds);
    EXPECT_EQ(result.num_candidates, 0u);
  }
}

TEST(BucketIndex, ParameterValidationIsTyped) {
  Fixture fx;
  ASSERT_EQ(fx.store.sig_num_hashes, store::kDefaultSignatureHashes);
  // Zero bands is the postings scan: there is no table to build.
  EXPECT_THROW(BucketIndex(fx.store, BucketIndexParams{0, 1}),
               InvalidArgument);
  // min_band_hits must be >= 1.
  EXPECT_THROW(BucketIndex(fx.store, BucketIndexParams{32, 0}),
               InvalidArgument);
  // num_bands must divide the signature width.
  EXPECT_THROW(BucketIndex(fx.store, BucketIndexParams{7, 1}),
               InvalidArgument);
  // min_band_hits cannot exceed num_bands.
  EXPECT_THROW(BucketIndex(fx.store, BucketIndexParams{4, 5}),
               InvalidArgument);
  // Covered reps must exist.
  const std::vector<u32> bogus{static_cast<u32>(
      fx.store.representatives.size())};
  EXPECT_THROW(BucketIndex(fx.store, kBanding, std::span<const u32>(bogus)),
               InvalidArgument);
}

}  // namespace
}  // namespace gpclust::serve
