#include "seq/sketch.hpp"

#include <algorithm>
#include <tuple>

#include "seq/alphabet.hpp"
#include "util/parallel_sort.hpp"
#include "util/rng.hpp"

namespace gpclust::seq {

SketchHashes::SketchHashes(u64 num_hashes, u64 seed) {
  GPCLUST_CHECK(num_hashes >= 1, "sketch needs at least one hash");
  util::SplitMix64 sm(seed ^ 0x5167a55e5ull);
  a_.reserve(num_hashes);
  b_.reserve(num_hashes);
  for (u64 j = 0; j < num_hashes; ++j) {
    // A in [1, P) keeps the map bijective, exactly like core::HashFamily.
    a_.push_back(1 + sm.next() % (util::kMersenne61 - 1));
    b_.push_back(sm.next() % util::kMersenne61);
  }
}

void SketchHashes::sketch(std::span<const u64> codes,
                          std::span<u64> out) const {
  GPCLUST_CHECK(out.size() == a_.size(), "sketch output size mismatch");
  std::fill(out.begin(), out.end(), kEmptySketchSlot);
  for (u64 code : codes) {
    for (std::size_t j = 0; j < a_.size(); ++j) {
      out[j] = std::min(out[j], apply(j, code));
    }
  }
}

u64 band_key(const BandLayout& layout, std::span<const u64> row, u64 band) {
  GPCLUST_CHECK(row.size() == layout.width() && band < layout.num_bands,
                "band outside the signature row");
  u64 h = 0x9e3779b97f4a7c15ull * (band + 1);
  for (u64 s : row.subspan(band * layout.rows_per_band, layout.rows_per_band)) {
    h ^= s + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void append_band_entries(std::span<const u64> signatures,
                         const BandLayout& layout, u64 band, u32 first_id,
                         std::vector<BandEntry>& table) {
  const u64 width = layout.width();
  GPCLUST_CHECK(width > 0 && signatures.size() % width == 0,
                "signatures are not whole rows");
  for (std::size_t i = 0; i * width < signatures.size(); ++i) {
    const std::span<const u64> row = signatures.subspan(i * width, width);
    if (row.front() == kEmptySketchSlot) continue;
    table.push_back({band_key(layout, row, band), static_cast<u32>(band),
                     static_cast<u32>(first_id + i)});
  }
}

std::span<const BandEntry> band_bucket(std::span<const BandEntry> table,
                                       u64 band, u64 key) {
  const auto [first, last] = std::equal_range(
      table.begin(), table.end(), BandEntry{key, static_cast<u32>(band), 0},
      [](const BandEntry& x, const BandEntry& y) {
        return std::tie(x.key, x.band) < std::tie(y.key, y.band);
      });
  return {first, last};
}

namespace {

/// The k-mer starting at `pos` (caller guarantees pos + k <= size).
u64 kmer_code(std::string_view residues, std::size_t pos, std::size_t k) {
  u64 code = 0;
  for (std::size_t j = 0; j < k; ++j) {
    code = code * kNumResidues + residue_index(residues[pos + j]);
  }
  return code;
}

/// Code of a slot that lost the first-occurrence race to an earlier
/// window of the same k-mer. Real codes stay below 25^12 < 2^57, so the
/// marked slots sort after every real posting.
constexpr u64 kDuplicateCode = ~0ull;

}  // namespace

void distinct_kmer_codes(std::string_view residues, std::size_t k,
                         std::vector<u64>& out) {
  out.clear();
  if (residues.size() < k) return;
  for (std::size_t pos = 0; pos + k <= residues.size(); ++pos) {
    out.push_back(kmer_code(residues, pos, k));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::size_t count_shared_codes(std::span<const u64> a,
                               std::span<const u64> b) {
  std::size_t shared = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

std::span<const KmerPosting> postings_run(
    std::span<const KmerPosting> postings, u64 code) {
  const auto first = std::lower_bound(
      postings.begin(), postings.end(), code,
      [](const KmerPosting& p, u64 c) { return p.code < c; });
  auto last = first;
  while (last != postings.end() && last->code == code) ++last;
  return {first, last};
}

std::vector<KmerPosting> build_kmer_postings(
    std::size_t num_sequences,
    const std::function<std::string_view(std::size_t)>& residues_of,
    std::size_t k, const util::Workers& workers) {
  // Sequence i owns slots [start[i], start[i + 1]): one per k-mer window.
  std::vector<u64> start(num_sequences + 1, 0);
  for (std::size_t i = 0; i < num_sequences; ++i) {
    const std::size_t len = residues_of(i).size();
    start[i + 1] = start[i] + (len >= k ? len - k + 1 : 0);
  }
  std::vector<KmerPosting> postings(start[num_sequences]);

  // Per sequence: every window, sorted by (code, pos); each code keeps its
  // first occurrence and the later windows are marked duplicate.
  workers.parallel_for(0, num_sequences, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::string_view residues = residues_of(i);
      const auto first =
          postings.begin() + static_cast<std::ptrdiff_t>(start[i]);
      const auto last =
          postings.begin() + static_cast<std::ptrdiff_t>(start[i + 1]);
      for (auto it = first; it != last; ++it) {
        const auto pos = static_cast<std::size_t>(it - first);
        *it = {kmer_code(residues, pos, k), static_cast<u32>(i),
               static_cast<u32>(pos)};
      }
      std::sort(first, last);  // id is constant: (code, pos) order
      for (auto it = first, kept = first; it != last; ++it) {
        if (it != kept && it->code == kept->code) {
          it->code = kDuplicateCode;
        } else {
          kept = it;
        }
      }
    }
  });

  // One (code, id) order over all sequences; the marked duplicates sort
  // last and are cut off.
  util::parallel_sort(postings, workers);
  postings.erase(std::lower_bound(postings.begin(), postings.end(),
                                  KmerPosting{kDuplicateCode, 0, 0}),
                 postings.end());
  return postings;
}

}  // namespace gpclust::seq
