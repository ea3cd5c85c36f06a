#include "seq/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace gpclust::seq {
namespace {

constexpr std::size_t kK = 3;

/// Back-to-back sketches of `residues`, one row of layout.width() slots each.
std::vector<u64> sketch_rows(const std::vector<std::string>& residues,
                             const BandLayout& layout) {
  const SketchHashes hashes(layout.width(), 0x5e7c4ull);
  std::vector<u64> rows(residues.size() * layout.width());
  std::vector<u64> codes;
  for (std::size_t i = 0; i < residues.size(); ++i) {
    distinct_kmer_codes(residues[i], kK, codes);
    hashes.sketch(codes, std::span<u64>(rows).subspan(i * layout.width(),
                                                      layout.width()));
  }
  return rows;
}

std::vector<u32> ids_of(std::span<const BandEntry> entries) {
  std::vector<u32> ids;
  for (const BandEntry& e : entries) ids.push_back(e.id);
  return ids;
}

TEST(BandTable, BuilderEmitsOneEntryPerIdAndBandAndSkipsEmptySketches) {
  const BandLayout layout{4, 2};
  // Row 1 is shorter than k: its sketch is empty.
  const std::vector<std::string> residues = {"MKVLAAGIVG", "MK",
                                             "MKVLSAGIVGWW", "PQRSTPQRST"};
  const std::vector<u64> rows = sketch_rows(residues, layout);
  ASSERT_EQ(rows[1 * layout.width()], kEmptySketchSlot);
  const u32 first_id = 10;

  std::vector<BandEntry> all;
  for (u64 band = 0; band < layout.num_bands; ++band) {
    append_band_entries(rows, layout, band, first_id, all);
  }
  ASSERT_EQ(all.size(), 3 * layout.num_bands);
  std::sort(all.begin(), all.end());

  for (u64 band = 0; band < layout.num_bands; ++band) {
    // The band built alone holds exactly the all-bands table's entries of
    // that band.
    std::vector<BandEntry> alone;
    append_band_entries(rows, layout, band, first_id, alone);
    std::sort(alone.begin(), alone.end());
    std::vector<BandEntry> in_all;
    std::copy_if(all.begin(), all.end(), std::back_inserter(in_all),
                 [&](const BandEntry& e) { return e.band == band; });
    EXPECT_EQ(alone, in_all) << "band " << band;

    std::vector<u32> ids = ids_of(alone);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<u32>{first_id, first_id + 2, first_id + 3}));
    for (const BandEntry& e : alone) {
      const std::span<const u64> row = std::span<const u64>(rows).subspan(
          (e.id - first_id) * layout.width(), layout.width());
      EXPECT_EQ(e.key, band_key(layout, row, band));
    }
  }
}

TEST(BandTable, BandKeyReadsOnlyItsOwnBandsSlots) {
  const BandLayout layout{3, 2};
  std::vector<u64> row = {11, 12, 21, 22, 31, 32};
  const u64 key1 = band_key(layout, row, 1);
  row[0] = 99;  // band 0
  row[5] = 99;  // band 2
  EXPECT_EQ(band_key(layout, row, 1), key1);
  row[3] = 99;  // band 1
  EXPECT_NE(band_key(layout, row, 1), key1);
  EXPECT_THROW(band_key(layout, row, 3), InvalidArgument);
  EXPECT_THROW(band_key(layout, std::span<const u64>(row).first(4), 0),
               InvalidArgument);
}

TEST(BandTable, BucketHoldsOnlyTheRequestedBand) {
  // Bands 0 and 1 share key 5; a probe must not mix them.
  std::vector<BandEntry> table = {
      {5, 1, 7}, {9, 0, 3}, {5, 0, 1}, {5, 1, 2}, {4, 1, 8}};
  std::sort(table.begin(), table.end());

  EXPECT_EQ(ids_of(band_bucket(table, 1, 5)), (std::vector<u32>{2, 7}));
  EXPECT_EQ(ids_of(band_bucket(table, 0, 5)), (std::vector<u32>{1}));
  EXPECT_EQ(ids_of(band_bucket(table, 0, 9)), (std::vector<u32>{3}));
  EXPECT_TRUE(band_bucket(table, 2, 5).empty());
  EXPECT_TRUE(band_bucket(table, 0, 4).empty());
  EXPECT_TRUE(band_bucket(table, 0, 6).empty());
  EXPECT_TRUE(band_bucket({}, 0, 5).empty());
}

TEST(PostingsRun, MissingCodeIsAnEmptyRunAtItsInsertionPoint) {
  const std::vector<KmerPosting> postings = {
      {2, 0, 0}, {2, 1, 4}, {5, 0, 1}, {9, 3, 2}};
  const std::span<const KmerPosting> all = postings;

  EXPECT_EQ(postings_run(all, 2).size(), 2u);
  const std::span<const KmerPosting> mid = postings_run(all, 4);
  EXPECT_TRUE(mid.empty());
  EXPECT_EQ(mid.data(), postings.data() + 2);
  const std::span<const KmerPosting> front = postings_run(all, 1);
  EXPECT_TRUE(front.empty());
  EXPECT_EQ(front.data(), postings.data());
  const std::span<const KmerPosting> back = postings_run(all, 11);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.data(), postings.data() + postings.size());
}

}  // namespace
}  // namespace gpclust::seq
