#include "store/signature.hpp"

#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace gpclust::store {

RepCodes group_rep_codes(const FamilyStore& store,
                         std::span<const char> covered) {
  // Count, prefix sum, place. Within one rep the codes land in ascending
  // order because the placement pass scans the postings in code order.
  const auto keep = [&](u32 rep) { return covered.empty() || covered[rep]; };
  const std::size_t num_reps = store.representatives.size();
  RepCodes out;
  out.offsets.assign(num_reps + 1, 0);
  for (const seq::KmerPosting& p : store.postings) {
    if (keep(p.id)) ++out.offsets[p.id + 1];
  }
  for (std::size_t r = 0; r < num_reps; ++r) {
    out.offsets[r + 1] += out.offsets[r];
  }
  out.codes.resize(out.offsets.back());
  std::vector<u64> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const seq::KmerPosting& p : store.postings) {
    if (keep(p.id)) out.codes[cursor[p.id]++] = p.code;
  }
  return out;
}

void build_rep_signatures(FamilyStore& store) {
  GPCLUST_CHECK(store.sig_num_hashes >= 1,
                "store has no signature parameters");
  const SignatureHashes hashes(store.sig_num_hashes, store.sig_seed);
  const std::size_t num_reps = store.representatives.size();
  store.signatures.assign(num_reps * store.sig_num_hashes,
                          kEmptySignatureSlot);

  const RepCodes grouped = group_rep_codes(store);
  // Each representative writes its own signature slice: sketch on the
  // default pool.
  util::Workers().parallel_for(0, num_reps, [&](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      hashes.sketch(std::span<const u64>(grouped.codes)
                        .subspan(grouped.offsets[r],
                                 grouped.offsets[r + 1] - grouped.offsets[r]),
                    std::span<u64>(store.signatures)
                        .subspan(r * store.sig_num_hashes,
                                 store.sig_num_hashes));
    }
  });
}

}  // namespace gpclust::store
