#pragma once
// Shared affine min-hash sketch kernel — the permutation family both sides
// of the pipeline sketch with. Slot j of a sketch holds
// min over a sequence's distinct k-mer codes of (A_j * code + B_j) mod P,
// P = 2^61 - 1, with the <A_j, B_j> pairs derived deterministically from a
// single 64-bit seed (the same min-wise scheme the shingling core uses,
// core/minhash.hpp). Two consumers share it and must stay bit-identical:
//
//   * store/signature + serve/bucket_index — per-representative snapshot
//     signatures (format v2) and the serve-tier bucketed seed index
//     (DESIGN.md §13);
//   * align/lsh_seeds and ingest — the build-side banded MinHash/LSH
//     candidate generator in front of the homology-graph verify cascade
//     (§14) and its incremental form (§15).
//
// The banded sketches of all three live in one bucket table type,
// BandEntry, with one builder (append_band_entries) and one probe
// (band_bucket).
//
// The derivation (seed xor, A/B draw order, apply formula, empty-slot
// value) is pinned by the committed v1/v2 snapshot fixtures: changing any
// of it silently invalidates every *.gpfi file on disk.

#include <compare>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "util/common.hpp"
#include "util/prime.hpp"

namespace gpclust::util {
class Workers;
}

namespace gpclust::seq {

/// Slot value of an empty k-mer set (sequence shorter than k).
/// Distinguishable from every real minimum, which is < kMersenne61.
inline constexpr u64 kEmptySketchSlot = ~0ull;

/// The fixed permutation set <A_j, B_j> for j in [0, num_hashes), derived
/// deterministically from (num_hashes, seed) over modulus kMersenne61.
class SketchHashes {
 public:
  SketchHashes(u64 num_hashes, u64 seed);

  u64 size() const { return static_cast<u64>(a_.size()); }

  u64 apply(std::size_t j, u64 code) const {
    return util::affine_mod_mersenne61(a_[j], b_[j], code);
  }

  /// Fills `out` (size() slots) with the min-hash sketch of `codes`;
  /// every slot is kEmptySketchSlot when `codes` is empty.
  void sketch(std::span<const u64> codes, std::span<u64> out) const;

 private:
  std::vector<u64> a_;
  std::vector<u64> b_;
};

/// How a signature row splits into bands: `num_bands` bands of
/// `rows_per_band` consecutive slots, `width()` slots per row.
struct BandLayout {
  u64 num_bands = 0;
  u64 rows_per_band = 0;

  u64 width() const { return num_bands * rows_per_band; }
};

/// Bucket key of band `band` of the signature `row` (width() slots): a
/// deterministic hash_combine-style mix over slots
/// [band * rows_per_band, (band + 1) * rows_per_band). The one place a row
/// is sliced into bands, so a band key means the same thing in the
/// build-side LSH seed stage, ingest and the serve-side bucket table.
/// Collisions between different slot contents only cost a false candidate
/// that an exact recount filters, so mixing quality is a constant-factor
/// knob, not a correctness one.
u64 band_key(const BandLayout& layout, std::span<const u64> row, u64 band);

/// One entry of a banded min-hash bucket table: band `band` of sequence
/// (or representative) `id` hashes to `key`. The defaulted order is
/// (key, band, id), so a bucket -- the entries sharing (key, band) -- is
/// one contiguous run with ascending ids.
struct BandEntry {
  u64 key = 0;
  u32 band = 0;
  u32 id = 0;

  friend auto operator<=>(const BandEntry&, const BandEntry&) = default;
};
static_assert(sizeof(BandEntry) == 16,
              "a band entry is one u64 key plus two u32 fields");

/// The band-table builder shared by the LSH seed stage (align/lsh_seeds),
/// ingest (ingest/ingest_session) and the serve bucket index
/// (serve/bucket_index): appends band `band`'s entry of every row of
/// `signatures` -- back-to-back rows of `layout.width()` slots, row i
/// belonging to id `first_id + i` -- to `table`, unsorted. Empty sketches
/// (sequences shorter than k, kEmptySketchSlot) can never seed the
/// postings path either, so they stay out of every bucket.
void append_band_entries(std::span<const u64> signatures,
                         const BandLayout& layout, u64 band, u32 first_id,
                         std::vector<BandEntry>& table);

/// The bucket (band, key) of the sorted `table`: the one band-table probe.
/// Entries of other bands never match, even when their 64-bit keys
/// collide with `key`.
std::span<const BandEntry> band_bucket(std::span<const BandEntry> table,
                                       u64 band, u64 key);

/// Appends the sorted distinct k-mer codes of `residues` to `out`
/// (cleared first); codes are base-kNumResidues over residue indices,
/// the same coding align/kmer_index and the store postings use. Empty
/// when the sequence is shorter than k.
void distinct_kmer_codes(std::string_view residues, std::size_t k,
                         std::vector<u64>& out);

/// Size of the intersection of two sorted, distinct code lists — the exact
/// shared-k-mer count of a pair that a sketch only nominated.
std::size_t count_shared_codes(std::span<const u64> a, std::span<const u64> b);

/// One distinct (k-mer, sequence) occurrence: `id` indexes the input
/// sequences, `pos` is the k-mer's first occurrence in that sequence.
/// (code, id) is unique within a postings array, so ordering by all three
/// fields orders by (code, id).
struct KmerPosting {
  u64 code = 0;  ///< base-kNumResidues packed k-mer
  u32 id = 0;
  u32 pos = 0;

  friend auto operator<=>(const KmerPosting&, const KmerPosting&) = default;
};

/// The run of the (code, id)-sorted `postings` holding `code`: the exact
/// postings probe of the serve tier and of ingest. When no posting holds
/// `code` the run is empty and starts where it would have started, so a
/// caller probing ascending codes can resume from the run's end.
std::span<const KmerPosting> postings_run(
    std::span<const KmerPosting> postings, u64 code);

/// The sorted-postings builder shared by the exact seed stage
/// (align/kmer_index), ingest (ingest/ingest_session) and the family
/// store's seed index (store::rebuild_rep_postings): every distinct k-mer of
/// `residues_of(0 .. num_sequences)` with its first occurrence, sorted by
/// (code, id). Sequences shorter than k contribute nothing. Each sequence
/// fills its own slice of one array sized from the window counts, then
/// one parallel sort orders the whole array; the result does not depend
/// on the worker count.
std::vector<KmerPosting> build_kmer_postings(
    std::size_t num_sequences,
    const std::function<std::string_view(std::size_t)>& residues_of,
    std::size_t k, const util::Workers& workers);

}  // namespace gpclust::seq
