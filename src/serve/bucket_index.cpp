#include "serve/bucket_index.hpp"

#include <algorithm>

#include "seq/sketch.hpp"

namespace gpclust::serve {

BucketIndex::BucketIndex(const store::FamilyStore& store,
                         const BucketIndexParams& params,
                         std::span<const u32> reps)
    : store_(store),
      params_(params),
      hashes_(store.sig_num_hashes, store.sig_seed) {
  params_.validate(store.sig_num_hashes);
  GPCLUST_CHECK(params_.num_bands > 0,
                "num_bands == 0 is the postings scan; it has no bucket table");
  layout_ = {params_.num_bands, store.sig_num_hashes / params_.num_bands};
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

  // Reps shorter than k have an all-empty signature; the builder keeps
  // them out of every bucket, as they can never seed the postings scan.
  const u64 width = layout_.width();
  table_.reserve(static_cast<std::size_t>(params_.num_bands) * num_reps);
  for (std::size_t r = 0; r < num_reps; ++r) {
    if (!covered[r]) continue;
    const std::span<const u64> sig =
        std::span<const u64>(store.signatures).subspan(r * width, width);
    for (u64 b = 0; b < params_.num_bands; ++b) {
      seq::append_band_entries(sig, layout_, b, static_cast<u32>(r), table_);
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
  // per band.
  query_sig.resize(store_.sig_num_hashes);
  hashes_.sketch(query_codes, query_sig);
  for (u64 b = 0; b < params_.num_bands; ++b) {
    for (const seq::BandEntry& e :
         seq::band_bucket(table_, b, seq::band_key(layout_, query_sig, b))) {
      hits.push_back(e.id);
    }
  }
}

}  // namespace gpclust::serve
