#include "align/kmer_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

seq::SequenceSet make_set(std::vector<std::string> residues) {
  seq::SequenceSet set;
  for (std::size_t i = 0; i < residues.size(); ++i) {
    set.push_back({"s" + std::to_string(i), std::move(residues[i])});
  }
  return set;
}

TEST(KmerIndex, FindsSharedKmerPair) {
  // Two sequences sharing a 12-residue block -> many shared 5-mers.
  const auto set = make_set({"AAAAAWWHHKKFFRRAAAAA",
                             "GGGGGWWHHKKFFRRGGGGG",
                             "CCCCCCCCCCCCCCCC"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 2;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_GE(pairs[0].shared_kmers, 2u);
}

TEST(KmerIndex, NoPairsForDissimilarSequences) {
  const auto set = make_set({"ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, MinSharedThresholdFilters) {
  // Exactly one shared 5-mer ("WWHHK").
  const auto set = make_set({"AAAAAWWHHKAAAAA", "GGGGGWWHHKGGGGG"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  EXPECT_EQ(find_candidate_pairs(set, cfg).size(), 1u);
  cfg.min_shared_kmers = 3;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, RepeatMaskingDropsUbiquitousKmers) {
  // A k-mer present in every sequence is masked when it exceeds the
  // occurrence cap, so no pairs are promoted through it.
  std::vector<std::string> residues(10, "AAAAAWWHHKAAAAA");
  const auto set = make_set(std::move(residues));
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  cfg.max_kmer_occurrences = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, DuplicateKmersWithinOneSequenceCountOnce) {
  // "WWHHK" appears twice in each sequence but shared count must be 1.
  const auto set = make_set({"WWHHKAAAAAWWHHK", "WWHHKGGGGGWWHHK"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].shared_kmers, 1u);
}

TEST(KmerIndex, SequencesShorterThanKIgnored) {
  const auto set = make_set({"MKV", "MKV"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, PairsAreOrderedAndUnique) {
  const auto set = make_set({"AAAAAWWHHKKFFRR", "GGGGWWHHKKFFRRG",
                             "CCCWWHHKKFFRRCC"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& p : pairs) EXPECT_LT(p.a, p.b);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end(),
                             [](const auto& p, const auto& q) {
                               return std::pair(p.a, p.b) <
                                      std::pair(q.a, q.b);
                             }));
}

TEST(KmerIndex, SortBasedCountingMatchesMapReference) {
  // The production path counts shared seeds by sorting flat packed keys;
  // this in-test reference keeps the old hash-map formulation. The two
  // must agree on pair set, order, and counts for any input.
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::string> residues;
    const std::size_t count = 3 + rng.next_below(12);
    std::string motif;
    for (int i = 0; i < 8; ++i) {
      motif += seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
    }
    for (std::size_t s = 0; s < count; ++s) {
      std::string r;
      const std::size_t len = 6 + rng.next_below(30);
      for (std::size_t i = 0; i < len; ++i) {
        r += seq::kResidues[rng.next_below(6)];  // small alphabet: collisions
      }
      if (s % 2 == 0) r.insert(rng.next_below(r.size()), motif);
      residues.push_back(std::move(r));
    }
    const auto set = make_set(std::move(residues));
    KmerIndexConfig cfg;
    cfg.k = 4;
    cfg.min_shared_kmers = 1 + rng.next_below(2);
    cfg.max_kmer_occurrences = 4 + rng.next_below(10);
    const auto pairs = find_candidate_pairs(set, cfg);

    // Reference: distinct k-mers per sequence, hash-map pair counting.
    auto distinct = [&](const std::string& s) {
      std::set<std::string> out;
      for (std::size_t p = 0; p + cfg.k <= s.size(); ++p) {
        out.insert(s.substr(p, cfg.k));
      }
      return out;
    };
    std::map<std::string, std::vector<u32>> postings;
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (const auto& kmer : distinct(set[i].residues)) {
        postings[kmer].push_back(static_cast<u32>(i));
      }
    }
    std::map<std::pair<u32, u32>, u32> counts;
    for (const auto& [kmer, seqs] : postings) {
      if (seqs.size() < 2 || seqs.size() > cfg.max_kmer_occurrences) continue;
      for (std::size_t x = 0; x < seqs.size(); ++x) {
        for (std::size_t y = x + 1; y < seqs.size(); ++y) {
          ++counts[{seqs[x], seqs[y]}];
        }
      }
    }
    std::vector<CandidatePair> expected;
    for (const auto& [key, c] : counts) {
      if (c >= cfg.min_shared_kmers) {
        expected.push_back({key.first, key.second, c, 0});
      }
    }
    ASSERT_EQ(pairs.size(), expected.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].a, expected[i].a);
      EXPECT_EQ(pairs[i].b, expected[i].b);
      EXPECT_EQ(pairs[i].shared_kmers, expected[i].shared_kmers);
    }
  }
}

// Test-only oracle: the single-threaded global-sort formulation the
// bucketed stage replaced — every (k-mer, sequence) first occurrence, one
// global (code, seq) sort, one (key, diag) record per shared seed, one
// global sort of those records, one scan.
std::vector<CandidatePair> global_sort_reference(const seq::SequenceSet& set,
                                                 const KmerIndexConfig& cfg) {
  struct Posting {
    u64 code;
    u32 seq;
    u32 pos;
  };
  std::vector<Posting> postings;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const std::string& r = set[i].residues;
    std::map<u64, u32> first;  // code -> first position
    for (std::size_t pos = 0; pos + cfg.k <= r.size(); ++pos) {
      u64 code = 0;
      for (std::size_t j = 0; j < cfg.k; ++j) {
        code = code * seq::kNumResidues + seq::residue_index(r[pos + j]);
      }
      first.try_emplace(code, static_cast<u32>(pos));
    }
    for (const auto& [code, pos] : first) {
      postings.push_back({code, static_cast<u32>(i), pos});
    }
  }
  std::sort(postings.begin(), postings.end(),
            [](const Posting& x, const Posting& y) {
              return std::pair(x.code, x.seq) < std::pair(y.code, y.seq);
            });
  std::vector<std::pair<u64, i32>> seeds;
  for (std::size_t lo = 0; lo < postings.size();) {
    std::size_t hi = lo;
    while (hi < postings.size() && postings[hi].code == postings[lo].code) {
      ++hi;
    }
    if (hi - lo >= 2 && hi - lo <= cfg.max_kmer_occurrences) {
      for (std::size_t x = lo; x < hi; ++x) {
        for (std::size_t y = x + 1; y < hi; ++y) {
          seeds.emplace_back(
              (static_cast<u64>(postings[x].seq) << 32) | postings[y].seq,
              static_cast<i32>(postings[x].pos) -
                  static_cast<i32>(postings[y].pos));
        }
      }
    }
    lo = hi;
  }
  std::sort(seeds.begin(), seeds.end());
  std::vector<CandidatePair> pairs;
  for (std::size_t lo = 0; lo < seeds.size();) {
    std::size_t hi = lo;
    while (hi < seeds.size() && seeds[hi].first == seeds[lo].first) ++hi;
    if (hi - lo >= cfg.min_shared_kmers) {
      i32 mode_diag = seeds[lo].second;
      std::size_t mode_len = 0;
      for (std::size_t i = lo; i < hi;) {
        std::size_t j = i;
        while (j < hi && seeds[j].second == seeds[i].second) ++j;
        if (j - i > mode_len) {
          mode_len = j - i;
          mode_diag = seeds[i].second;
        }
        i = j;
      }
      pairs.push_back({static_cast<u32>(seeds[lo].first >> 32),
                       static_cast<u32>(seeds[lo].first & 0xffffffffu),
                       static_cast<u32>(hi - lo), mode_diag});
    }
    lo = hi;
  }
  return pairs;
}

// A metagenome large enough that the postings sort and the bucket stages
// split across workers (more postings than parallel_sort's 2^16 cutoff).
seq::SequenceSet parallel_scale_set(u64 seed) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 100;
  cfg.min_members = 4;
  cfg.max_members = 30;
  cfg.num_background_orfs = 100;
  cfg.seed = seed;
  return seq::generate_metagenome(cfg).sequences;
}

TEST(KmerIndex, BucketedStageMatchesGlobalSortOracle) {
  const auto set = parallel_scale_set(11);
  std::size_t residues = 0;
  for (const auto& s : set) residues += s.residues.size();
  ASSERT_GT(residues, std::size_t{80000});
  for (const std::size_t k : {3u, 5u, 8u}) {
    KmerIndexConfig cfg;
    cfg.k = k;
    cfg.min_shared_kmers = 1;
    // min_shared_kmers only filters the pair list (the diagonal mode is
    // over all of a pair's seeds), so one oracle run serves all three.
    const auto all_pairs = global_sort_reference(set, cfg);
    for (const std::size_t min_shared : {1u, 2u, 3u}) {
      cfg.min_shared_kmers = min_shared;
      std::vector<CandidatePair> expected;
      std::copy_if(all_pairs.begin(), all_pairs.end(),
                   std::back_inserter(expected), [&](const auto& p) {
                     return p.shared_kmers >= min_shared;
                   });
      ASSERT_FALSE(expected.empty());
      for (const std::size_t threads : {1u, 0u, 3u}) {
        EXPECT_EQ(find_candidate_pairs(set, cfg, nullptr, nullptr, threads),
                  expected)
            << "k=" << k << " min_shared=" << min_shared
            << " threads=" << threads;
      }
    }
  }
}

TEST(KmerIndex, OccurrenceCapIsInclusive) {
  // "WWHHK" occurs in exactly max_kmer_occurrences sequences (0..3) and
  // seeds all their pairs; "MMNNQ" occurs in max + 1 (4..8) and is masked.
  std::vector<std::string> residues;
  for (int i = 0; i < 4; ++i) residues.push_back("AAAAAWWHHKAAAAA");
  for (int i = 0; i < 5; ++i) residues.push_back("GGGGGMMNNQGGGGG");
  const auto set = make_set(std::move(residues));
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  cfg.max_kmer_occurrences = 4;
  const auto expected = global_sort_reference(set, cfg);
  for (const std::size_t threads : {1u, 0u, 3u}) {
    const auto pairs =
        find_candidate_pairs(set, cfg, nullptr, nullptr, threads);
    EXPECT_EQ(pairs, expected) << threads << " threads";
    // 6 pairs among sequences 0..3, none among 4..8 (their shared
    // "GGGGG" also exceeds the cap).
    ASSERT_EQ(pairs.size(), 6u);
    for (const auto& p : pairs) EXPECT_LT(p.b, 4u);
  }
}

TEST(KmerIndex, ShortAndEmptyInputsOnEveryThreadCount) {
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  for (const std::size_t threads : {1u, 0u, 3u}) {
    std::size_t peak = 1;
    EXPECT_TRUE(find_candidate_pairs(seq::SequenceSet{}, cfg, &peak, nullptr,
                                     threads)
                    .empty());
    // Shorter-than-k sequences interleaved with real ones contribute no
    // postings and do not shift the others' ids.
    const auto set = make_set({"MKV", "WWHHKKFF", "", "AWWHHKKF", "MK"});
    const auto pairs =
        find_candidate_pairs(set, cfg, nullptr, nullptr, threads);
    EXPECT_EQ(pairs, global_sort_reference(set, cfg));
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], (CandidatePair{1, 3, 3, -1}));
  }
}

TEST(KmerIndex, PeakBytesIndependentOfThreadCount) {
  const auto set = parallel_scale_set(13);
  KmerIndexConfig cfg;
  std::size_t serial_peak = 0;
  find_candidate_pairs(set, cfg, &serial_peak, nullptr, 1);
  EXPECT_GT(serial_peak, 0u);
  for (const std::size_t threads : {0u, 3u}) {
    std::size_t peak = 0;
    find_candidate_pairs(set, cfg, &peak, nullptr, threads);
    EXPECT_EQ(peak, serial_peak) << threads << " threads";
  }
}

TEST(KmerIndex, SeedDiagonalTracksOffset) {
  // b is a by 4 residues shifted: every shared seed sits on diagonal +4.
  const std::string core = "WWHHKKFFRRMMNNQQEE";
  const auto set = make_set({"ACDE" + core, core});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].diag, 4);

  // Identical sequences share every seed on the main diagonal.
  const auto same = make_set({core, core});
  const auto self_pairs = find_candidate_pairs(same, cfg);
  ASSERT_EQ(self_pairs.size(), 1u);
  EXPECT_EQ(self_pairs[0].diag, 0);
}

TEST(KmerIndex, SeedDiagonalIsTheModeOverSharedSeeds) {
  // Two shared blocks: a long one on diagonal 0 (more seeds) and a short
  // one on diagonal +6; the mode must pick the long block's diagonal.
  const std::string long_block = "WWHHKKFFRRMMNN";  // 10 distinct 5-mers
  const std::string short_block = "QQEEYY";         // 2 distinct 5-mers
  const auto set = make_set({long_block + "AAAAAA" + short_block,
                             long_block + short_block});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].diag, 0);
}

TEST(KmerIndex, Validation) {
  const auto set = make_set({"MKVLA"});
  KmerIndexConfig cfg;
  cfg.k = 1;
  EXPECT_THROW(find_candidate_pairs(set, cfg), InvalidArgument);
  cfg = KmerIndexConfig{};
  cfg.min_shared_kmers = 0;
  EXPECT_THROW(find_candidate_pairs(set, cfg), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::align
