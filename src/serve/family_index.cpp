#include "serve/family_index.hpp"

#include <algorithm>

#include "seq/alphabet.hpp"
#include "serve/bucket_index.hpp"

namespace gpclust::serve {

namespace {

/// Turns the seed hits (one rep per hit) into (rep, hit count) for every
/// rep with at least `floor` hits, rep-ascending.
void count_rep_hits(std::vector<u32>& hits, u32 floor,
                    std::vector<std::pair<u32, u32>>& out) {
  std::sort(hits.begin(), hits.end());
  for (std::size_t lo = 0; lo < hits.size();) {
    std::size_t hi = lo;
    while (hi < hits.size() && hits[hi] == hits[lo]) ++hi;
    if (hi - lo >= floor) out.emplace_back(hits[lo], static_cast<u32>(hi - lo));
    lo = hi;
  }
}

}  // namespace

std::string_view classify_outcome_name(ClassifyOutcome outcome) {
  switch (outcome) {
    case ClassifyOutcome::Assigned: return "assigned";
    case ClassifyOutcome::NoSeeds: return "no_seeds";
    case ClassifyOutcome::BelowThreshold: return "below_threshold";
    case ClassifyOutcome::InvalidQuery: return "invalid_query";
  }
  return "unknown";
}

FamilyIndex::FamilyIndex(const store::FamilyStore& store) : store_(store) {
  GPCLUST_CHECK(store.kmer_k >= 2 && store.kmer_k <= 12,
                "store has no valid k-mer index");
}

bool FamilyIndex::prepare_query_codes(std::string_view query,
                                      ClassifyScratch& scratch,
                                      CandidateScores& result) const {
  if (query.empty() || !seq::is_valid_protein(query)) {
    result.invalid = true;
    return false;
  }

  seq::distinct_kmer_codes(query, store_.kmer_k, scratch.query_codes_);
  return true;
}

void FamilyIndex::score_top_candidates(
    std::string_view query, const ClassifyParams& params,
    ClassifyScratch& scratch, std::vector<std::pair<u32, u32>>& candidates,
    CandidateScores& result) const {
  result.num_candidates = static_cast<u32>(candidates.size());
  if (candidates.empty()) return;

  // Best-seeded first, deterministically: (shared desc, rep asc).
  std::sort(candidates.begin(), candidates.end(),
            [](const std::pair<u32, u32>& a, const std::pair<u32, u32>& b) {
              return std::pair(b.second, a.first) < std::pair(a.second, b.first);
            });
  if (candidates.size() > params.max_candidates) {
    candidates.resize(params.max_candidates);
  }

  // Exact scoring: the representative's cached striped profile against
  // the encoded query. The SW score is symmetric in its arguments, so
  // profiling the rep (the reusable side) and streaming the query through
  // it gives the same score as the reverse orientation.
  auto& encoded = scratch.encoded_query_;
  encoded.clear();
  encoded.reserve(query.size());
  for (char c : query) encoded.push_back(seq::residue_index(c));

  result.scored.reserve(candidates.size());
  for (const auto& [rep, shared] : candidates) {
    const u32 rep_seq = store_.representatives[rep];
    const std::string_view rep_residues = store_.sequence(rep_seq);
    const align::QueryProfile& profile =
        scratch.profiles_.get(rep_seq, rep_residues);
    const align::AlignmentResult aligned = align::smith_waterman_simd(
        profile, encoded, params.alignment, &scratch.simd_);
    result.scored.push_back(ScoredCandidate{rep, shared, aligned.score});
  }
}

CandidateScores FamilyIndex::score_candidates(
    std::string_view query, const ClassifyParams& params,
    ClassifyScratch& scratch,
    std::span<const seq::KmerPosting> postings) const {
  params.validate();
  CandidateScores result;
  // 1. Validity + the query's distinct k-mer codes.
  if (!prepare_query_codes(query, scratch, result)) return result;
  const auto& codes = scratch.query_codes_;

  // 2. Seed counting: one probe per distinct query k-mer into the sorted
  // postings, resumed where the previous run ended. The postings are
  // distinct per (code, rep), so each hit is one shared distinct k-mer.
  auto& hits = scratch.rep_hits_;
  hits.clear();
  std::span<const seq::KmerPosting> rest = postings;
  for (u64 code : codes) {
    const auto run = seq::postings_run(rest, code);
    for (const seq::KmerPosting& p : run) hits.push_back(p.id);
    rest = {run.end(), rest.end()};
  }
  std::vector<std::pair<u32, u32>> candidates;
  count_rep_hits(hits, params.min_shared_kmers, candidates);

  // 3-4. Order, truncate, Smith-Waterman — shared with the bucket table.
  score_top_candidates(query, params, scratch, candidates, result);
  return result;
}

CandidateScores FamilyIndex::score_candidates(std::string_view query,
                                              const ClassifyParams& params,
                                              ClassifyScratch& scratch,
                                              const BucketIndex& buckets) const {
  params.validate();
  CandidateScores result;
  // 1. Validity + the query's distinct k-mer codes.
  if (!prepare_query_codes(query, scratch, result)) return result;

  // 2. Reps whose band keys collide often enough, re-counted exactly so
  // ordering and truncation match the postings scan bit for bit, then the
  // same floor the postings scan applies.
  const auto& codes = scratch.query_codes_;
  auto& hits = scratch.rep_hits_;
  hits.clear();
  buckets.probe(codes, scratch.query_sig_, hits);
  std::vector<std::pair<u32, u32>> candidates;
  count_rep_hits(hits, buckets.params().min_band_hits, candidates);
  for (auto& [rep, shared] : candidates) {
    shared = buckets.exact_shared(codes, rep);
  }
  std::erase_if(candidates, [&](const std::pair<u32, u32>& c) {
    return c.second < params.min_shared_kmers;
  });

  // 3-4. Order, truncate, Smith-Waterman — shared with the postings path.
  score_top_candidates(query, params, scratch, candidates, result);
  return result;
}

ClassifyResult FamilyIndex::classify(std::string_view query,
                                     const ClassifyParams& params,
                                     ClassifyScratch& scratch,
                                     const BucketIndex& buckets) const {
  return decide(query, params, score_candidates(query, params, scratch, buckets));
}

ClassifyResult FamilyIndex::decide(std::string_view query,
                                   const ClassifyParams& params,
                                   const CandidateScores& scores) const {
  params.validate();
  ClassifyResult result;
  if (scores.invalid) {
    result.outcome = ClassifyOutcome::InvalidQuery;
    return result;
  }
  result.num_candidates = scores.num_candidates;
  if (scores.scored.empty()) {
    result.outcome = ClassifyOutcome::NoSeeds;
    return result;
  }
  result.num_alignments = static_cast<u32>(scores.scored.size());

  // The score floor depends on the representative's length, so whether a
  // candidate qualifies is judged per candidate; the winner is the best
  // *qualifying* candidate, falling back to the best raw score (reported
  // as BelowThreshold) when none qualifies. Winner order is deterministic
  // AND order-independent — (qualifies desc, score desc, family asc,
  // rep_seq asc) is a strict total order because rep_seq values are
  // distinct across representatives — so the sharded router can feed this
  // any permutation of the single-node candidate list.
  bool have_best = false;
  bool best_qualifies = false;
  u32 best_family = kNoFamily;
  for (const ScoredCandidate& cand : scores.scored) {
    const u32 rep_seq = store_.representatives[cand.rep];
    const std::string_view rep_residues = store_.sequence(rep_seq);
    const u32 family = store_.family_of[rep_seq];
    const double floor =
        params.min_score_per_residue *
        static_cast<double>(std::min(query.size(), rep_residues.size()));
    const bool qualifies = cand.score >= params.min_score &&
                           static_cast<double>(cand.score) >= floor;
    const auto key = std::tuple(!qualifies, -cand.score, family, rep_seq);
    if (!have_best || key < std::tuple(!best_qualifies, -result.score,
                                       best_family, result.best_rep)) {
      have_best = true;
      best_qualifies = qualifies;
      result.score = cand.score;
      result.best_rep = rep_seq;
      result.shared_kmers = cand.shared;
      best_family = family;
    }
  }

  if (best_qualifies) {
    result.outcome = ClassifyOutcome::Assigned;
    result.family = best_family;
  } else {
    result.outcome = ClassifyOutcome::BelowThreshold;
  }
  return result;
}

ClassifyResult FamilyIndex::classify(std::string_view query,
                                     const ClassifyParams& params,
                                     ClassifyScratch& scratch) const {
  return decide(query, params, score_candidates(query, params, scratch));
}

}  // namespace gpclust::serve
