#pragma once
// BucketIndex — the banded LSH candidate generator of the serve tier
// (DESIGN.md §13): the banded min-hash signatures the store carries per
// representative (store/signature.hpp) are sliced into
// `sig_num_hashes / num_bands` slots per band, each band hashed to a
// bucket key, and queries are classified by probing the resulting band
// table (seq::BandEntry, the one the build-side LSH seed stage and ingest
// use) instead of scanning the exact k-mer postings. A rep is
// a candidate when at least `min_band_hits` of its band keys collide with
// the query's; recall is probabilistic and tunable by banding. Candidate
// cost then scales with bucket occupancy — reps that actually collide
// with the query — rather than with the total representative count
// (MetaCache's reference bucketing, PAPERS.md, transplanted to family
// representatives).
//
// Nominated reps are re-counted exactly against their sorted code lists,
// so downstream ordering, truncation and Smith-Waterman scoring are
// byte-compatible with the postings scan for every rep that survives the
// bucket stage.

#include <span>
#include <vector>

#include "seq/sketch.hpp"
#include "store/signature.hpp"
#include "store/snapshot.hpp"
#include "util/common.hpp"

namespace gpclust::serve {

struct BucketIndexParams {
  /// Signature bands; must divide the store's sig_num_hashes. 0 (the
  /// default) is the exact postings scan: the serving tiers build no
  /// bucket table at all.
  u64 num_bands = 0;

  /// Band-key collisions required before a representative becomes a
  /// candidate (banded only).
  u32 min_band_hits = 1;

  void validate(u64 sig_num_hashes) const {
    GPCLUST_CHECK(min_band_hits >= 1, "min_band_hits must be >= 1");
    if (num_bands > 0) {
      GPCLUST_CHECK(sig_num_hashes % num_bands == 0,
                    "num_bands must divide the signature width");
      GPCLUST_CHECK(min_band_hits <= num_bands,
                    "min_band_hits cannot exceed num_bands");
    }
  }
};

/// Read-only bucket table over a store's representatives (optionally a
/// subset — the sharded tier builds one per hosted shard, and a shard's
/// table is exactly the global table filtered to its reps, so per-shard
/// candidate sets partition the single-node set). Thread-safe for
/// concurrent probes with per-caller scratch, like FamilyIndex.
class BucketIndex {
 public:
  /// `reps` lists the covered representative indices (empty = all).
  /// `params.num_bands` must be > 0. The store must carry signatures (any
  /// loaded/built store does) and must outlive the index.
  BucketIndex(const store::FamilyStore& store, const BucketIndexParams& params,
              std::span<const u32> reps = {});

  const BucketIndexParams& params() const { return params_; }

  /// Sketches the sorted distinct `query_codes` and appends one covered rep
  /// per band-key collision to `hits`.
  void probe(std::span<const u64> query_codes, std::vector<u64>& query_sig,
             std::vector<u32>& hits) const;

  /// Exact distinct k-mers `query_codes` shares with covered rep `rep`.
  u32 exact_shared(std::span<const u64> query_codes, u32 rep) const;

 private:
  const store::FamilyStore& store_;
  BucketIndexParams params_;
  store::SignatureHashes hashes_;

  /// Signature rows split into num_bands bands.
  seq::BandLayout layout_;

  /// Covered reps' band table (seq/sketch.hpp), sorted.
  std::vector<seq::BandEntry> table_;

  /// Covered reps' sorted distinct k-mer codes (the exact-count side of
  /// probing).
  store::RepCodes rep_codes_;
};

}  // namespace gpclust::serve
