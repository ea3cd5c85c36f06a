#pragma once
// Per-representative banded min-hash signatures (DESIGN.md §13) — the
// sketch half of the serve tier's bucketed seed index. Each representative
// is summarized by `sig_num_hashes` minima: slot j holds
// min over the rep's distinct k-mer codes of (A_j * code + B_j) mod P.
// The affine permutation kernel itself lives in the shared sketch module
// (seq/sketch.hpp) — the build-side LSH seed stage (align/lsh_seeds, §14)
// sketches with the identical derivation — and this header keeps the
// store-facing names. Signatures are built at snapshot time and persisted
// (snapshot format v2); the same derivation sketches queries at serve
// time, so a build-time signature and a serve-time signature of the same
// residue string are bit-identical.

#include <span>
#include <vector>

#include "seq/sketch.hpp"
#include "store/snapshot.hpp"
#include "util/common.hpp"

namespace gpclust::store {

/// Signature width written by default (StoreBuildConfig::sig_hashes).
inline constexpr u64 kDefaultSignatureHashes = 32;
/// Default derivation seed (StoreBuildConfig::sig_seed). Recorded in the
/// snapshot so queries sketch with the exact permutations the index used.
inline constexpr u64 kDefaultSignatureSeed = 0x51476e5ull;  // "SIGne5"
/// Slot value of an empty k-mer set (representative shorter than k).
inline constexpr u64 kEmptySignatureSlot = seq::kEmptySketchSlot;

/// The shared permutation set, store-facing name. The derivation is pinned
/// by the committed v1/v2 snapshot fixtures (snapshot_compat_test).
using SignatureHashes = seq::SketchHashes;

/// Representatives' sorted distinct k-mer codes, grouped out of the
/// (code, rep)-sorted postings: rep r's codes are
/// `codes[offsets[r] .. offsets[r + 1])`. Only reps with `covered[r]` get
/// codes; an empty `covered` covers every rep.
struct RepCodes {
  std::vector<u64> offsets;  ///< num_representatives + 1 entries
  std::vector<u64> codes;
};
RepCodes group_rep_codes(const FamilyStore& store,
                         std::span<const char> covered = {});

/// (Re)builds `store.signatures` from the postings index using
/// `store.sig_num_hashes` and `store.sig_seed`: one sketch per
/// representative, representative-major. This is what build_family_store
/// runs at snapshot time and what the loader runs for version-1 snapshots
/// that predate the signature sections — both produce identical bytes for
/// the same store.
void build_rep_signatures(FamilyStore& store);

}  // namespace gpclust::store
