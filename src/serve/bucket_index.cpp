#include "serve/bucket_index.hpp"

#include <algorithm>

namespace gpclust::serve {

// Band keys come from the shared sketch module (seq/sketch.hpp) so a
// band's bucket key means the same thing here and in the build-side LSH
// seed stage (align/lsh_seeds).
using seq::band_key;

BucketIndex::BucketIndex(const store::FamilyStore& store,
                         const BucketIndexParams& params,
                         std::span<const u32> reps)
    : store_(store),
      params_(params),
      hashes_(store.sig_num_hashes, store.sig_seed) {
  params_.validate(store.sig_num_hashes);
  GPCLUST_CHECK(store.signatures.size() ==
                    store.representatives.size() * store.sig_num_hashes,
                "store signatures missing or malformed");

  const std::size_t num_reps = store.representatives.size();
  std::vector<char> covered(num_reps, reps.empty() ? 1 : 0);
  for (u32 r : reps) {
    GPCLUST_CHECK(r < num_reps, "covered rep out of range");
    covered[r] = 1;
  }

  // Covered reps' sorted distinct code lists, grouped out of the
  // (code, rep)-sorted postings by count / prefix-sum / place (codes land
  // ascending per rep because the placement pass scans in code order).
  rep_code_offsets_.assign(num_reps + 1, 0);
  for (const store::RepPosting& p : store.postings) {
    if (covered[p.id]) ++rep_code_offsets_[p.id + 1];
  }
  for (std::size_t r = 0; r < num_reps; ++r) {
    rep_code_offsets_[r + 1] += rep_code_offsets_[r];
  }
  rep_codes_.resize(rep_code_offsets_.back());
  {
    std::vector<u64> cursor(rep_code_offsets_.begin(),
                            rep_code_offsets_.end() - 1);
    for (const store::RepPosting& p : store.postings) {
      if (covered[p.id]) rep_codes_[cursor[p.id]++] = p.code;
    }
  }

  if (params_.num_bands == 0) {
    // Full recall: the table is the covered postings minus positions —
    // already (code, rep)-sorted, every collision an exact shared k-mer.
    table_.reserve(rep_codes_.size());
    for (const store::RepPosting& p : store.postings) {
      if (covered[p.id]) table_.emplace_back(p.code, p.id);
    }
    return;
  }

  const u64 rows = store.sig_num_hashes / params_.num_bands;
  table_.reserve(static_cast<std::size_t>(params_.num_bands) * num_reps);
  for (std::size_t r = 0; r < num_reps; ++r) {
    // Reps shorter than k have no codes and an all-empty signature; they
    // can never seed the postings path, so keep them out of every bucket.
    if (!covered[r] || rep_code_offsets_[r] == rep_code_offsets_[r + 1]) {
      continue;
    }
    const std::span<const u64> sig =
        std::span<const u64>(store.signatures)
            .subspan(r * store.sig_num_hashes, store.sig_num_hashes);
    for (u64 b = 0; b < params_.num_bands; ++b) {
      table_.emplace_back(band_key(b, sig.subspan(b * rows, rows)),
                          static_cast<u32>(r));
    }
  }
  std::sort(table_.begin(), table_.end());
}

u64 BucketIndex::exact_shared(std::span<const u64> query_codes,
                              u32 rep) const {
  const u64* lo = rep_codes_.data() + rep_code_offsets_[rep];
  const u64* hi = rep_codes_.data() + rep_code_offsets_[rep + 1];
  u64 shared = 0;
  for (u64 code : query_codes) {
    lo = std::lower_bound(lo, hi, code);
    if (lo == hi) break;
    if (*lo == code) ++shared;
  }
  return shared;
}

void BucketIndex::candidates(std::span<const u64> query_codes,
                             ClassifyScratch& scratch,
                             std::vector<std::pair<u32, u32>>& out) const {
  out.clear();
  if (query_codes.empty()) return;

  // Collect one (rep, 1) hit per bucket collision, then turn the sorted
  // hits into per-rep collision counts — the same shape as the postings
  // path's seed counting.
  auto& hits = scratch.bucket_hits_;
  hits.clear();
  if (params_.num_bands == 0) {
    // Keys are k-mer codes and both sides are sorted: resumed lower_bound
    // per query code, exactly like the postings scan.
    auto it = table_.begin();
    for (u64 code : query_codes) {
      it = std::lower_bound(it, table_.end(), code,
                            [](const std::pair<u64, u32>& e, u64 c) {
                              return e.first < c;
                            });
      for (auto run = it; run != table_.end() && run->first == code; ++run) {
        hits.emplace_back(run->second, 1);
      }
    }
  } else {
    // Sketch the query with the store's permutations, then probe one
    // bucket per band. Band keys are unordered across bands, so each
    // probe is an independent equal_range.
    const u64 rows = store_.sig_num_hashes / params_.num_bands;
    auto& sig = scratch.query_sig_;
    sig.resize(store_.sig_num_hashes);
    hashes_.sketch(query_codes, sig);
    for (u64 b = 0; b < params_.num_bands; ++b) {
      const u64 key = band_key(
          b, std::span<const u64>(sig).subspan(b * rows, rows));
      auto it = std::lower_bound(table_.begin(), table_.end(), key,
                                 [](const std::pair<u64, u32>& e, u64 k) {
                                   return e.first < k;
                                 });
      for (; it != table_.end() && it->first == key; ++it) {
        hits.emplace_back(it->second, 1);
      }
    }
  }
  std::sort(hits.begin(), hits.end());

  for (std::size_t lo = 0; lo < hits.size();) {
    std::size_t hi = lo;
    while (hi < hits.size() && hits[hi].first == hits[lo].first) ++hi;
    const u32 rep = hits[lo].first;
    const u32 collisions = static_cast<u32>(hi - lo);
    if (collisions >= params_.min_band_hits) {
      // Full recall: collisions ARE the exact shared count. Banded: the
      // bucket stage only nominated the rep — recount exactly so ordering
      // and truncation downstream match the postings path bit for bit.
      const u64 shared = params_.num_bands == 0
                             ? collisions
                             : exact_shared(query_codes, rep);
      if (shared > 0) out.emplace_back(rep, static_cast<u32>(shared));
    }
    lo = hi;
  }
}

}  // namespace gpclust::serve
