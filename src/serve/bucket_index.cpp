#include "serve/bucket_index.hpp"

#include <algorithm>

#include "seq/sketch.hpp"

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
  GPCLUST_CHECK(params_.num_bands > 0,
                "num_bands == 0 is the postings scan; it has no bucket table");
  GPCLUST_CHECK(store.signatures.size() ==
                    store.representatives.size() * store.sig_num_hashes,
                "store signatures missing or malformed");

  const std::size_t num_reps = store.representatives.size();
  std::vector<char> covered(num_reps, reps.empty() ? 1 : 0);
  for (u32 r : reps) {
    GPCLUST_CHECK(r < num_reps, "covered rep out of range");
    covered[r] = 1;
  }

  rep_codes_ = store::group_rep_codes(store, covered);

  const u64 rows = store.sig_num_hashes / params_.num_bands;
  table_.reserve(static_cast<std::size_t>(params_.num_bands) * num_reps);
  for (std::size_t r = 0; r < num_reps; ++r) {
    // Reps shorter than k have no codes and an all-empty signature; they
    // can never seed the postings scan, so keep them out of every bucket.
    if (rep_codes_.offsets[r] == rep_codes_.offsets[r + 1]) continue;
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

u32 BucketIndex::exact_shared(std::span<const u64> query_codes,
                              u32 rep) const {
  const u64 lo = rep_codes_.offsets[rep];
  const u64 hi = rep_codes_.offsets[rep + 1];
  return static_cast<u32>(seq::count_shared_codes(
      query_codes, std::span<const u64>(rep_codes_.codes).subspan(lo, hi - lo)));
}

void BucketIndex::probe(std::span<const u64> query_codes,
                        std::vector<u64>& query_sig,
                        std::vector<u32>& hits) const {
  if (query_codes.empty()) return;
  // Sketch the query with the store's permutations, then probe one bucket
  // per band. Band keys are unordered across bands, so each probe is an
  // independent equal_range.
  const u64 rows = store_.sig_num_hashes / params_.num_bands;
  query_sig.resize(store_.sig_num_hashes);
  hashes_.sketch(query_codes, query_sig);
  for (u64 b = 0; b < params_.num_bands; ++b) {
    const u64 key =
        band_key(b, std::span<const u64>(query_sig).subspan(b * rows, rows));
    auto it = std::lower_bound(table_.begin(), table_.end(), key,
                               [](const std::pair<u64, u32>& e, u64 k) {
                                 return e.first < k;
                               });
    for (; it != table_.end() && it->first == key; ++it) {
      hits.push_back(it->second);
    }
  }
}

}  // namespace gpclust::serve
