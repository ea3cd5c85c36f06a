#pragma once
// Query load for the serve and append workloads: a pool of generated
// query ORFs, a Zipf-skewed draw over it, and an open-loop generator that
// submits on a fixed schedule regardless of completions.

#include <functional>
#include <future>
#include <stop_token>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/query_service.hpp"

namespace perfbench {

/// Distinct query ORFs. Assign-path queries are mutated fragments of
/// family members; reject-path queries are unrelated random ORFs.
struct QueryPool {
  std::vector<std::string> queries;
  /// Planted family of each query; unrelated queries get unique labels
  /// above every family.
  std::vector<u32> label;
  /// Assign-path query indices grouped per family, families in Zipf rank
  /// order (rank 0 is the hottest).
  std::vector<std::vector<u32>> by_rank;
  std::vector<double> rank_cdf;  ///< cumulative Zipf weights of by_rank
  std::vector<u32> unrelated;
};

/// `sources[i]` is a family member to fragment and `families[i]` its
/// planted family; every source yields `per_source` queries. About a
/// quarter of draws then take the reject path.
QueryPool make_query_pool(const std::vector<std::string>& sources,
                          const std::vector<u32>& families,
                          std::size_t per_source, u64 seed);

/// One query index: a Zipf-ranked family's fragment, or with probability
/// 1/4 an unrelated ORF.
u32 draw_query(const QueryPool& pool, gpclust::util::Xoshiro256& rng);

struct SentQuery {
  std::future<gpclust::serve::QueryOutcome> outcome;
  u32 query = 0;
  u64 id = 0;
  double sent_at = 0.0;      ///< now_s() at the send
  double lateness_s = 0.0;   ///< actual send time - scheduled send time
  double submitted_at = 0.0; ///< span-log clock
  u64 generation = 0;        ///< service generation just before submit
};

/// Submits draws at `rate` per second on a fixed schedule from `start` (a
/// now_s() time) until `end` or until `stop` is requested. Each submit call
/// is a "serve.submit" span on the "load" thread.
std::vector<SentQuery> open_loop(gpclust::serve::QueryService& service,
                                 const QueryPool& pool,
                                 gpclust::util::Xoshiro256& rng, double rate,
                                 double start, double end, SpanLog& log,
                                 u64 first_id, std::stop_token stop = {});

struct LoopOutcome {
  /// Scheduled send -> completion, answered queries only; a rejected query
  /// counts as missing every latency limit.
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> candidates;  ///< ClassifyResult::num_candidates
  gpclust::u64 attempted = 0;
  gpclust::u64 rejected = 0;  ///< queue-full or expired
  gpclust::u64 wrong = 0;     ///< answer differs from the direct classify
};

/// Waits for every outcome, in send order.
std::vector<gpclust::serve::QueryOutcome> wait_all(
    std::vector<SentQuery>& sent);

/// Tallies `outcomes[i]` of `sent[i]`. `is_correct(sent, result)` judges
/// an answer; each query's lifetime becomes a "serve.query" span sharing
/// the submit span's id.
LoopOutcome collect(
    const std::vector<SentQuery>& sent,
    const std::vector<gpclust::serve::QueryOutcome>& outcomes, SpanLog& log,
    const std::function<bool(const SentQuery&,
                             const gpclust::serve::ClassifyResult&)>&
        is_correct);

/// Adds the service's per-query "serve.wait" and "serve.classify" spans
/// among the tracer's first `num_events` events as the samples
/// "serve.wait_ms" and "serve.classify_ms".
void add_serve_span_samples(const gpclust::obs::Tracer& tracer,
                            std::size_t num_events, Result& result);

}  // namespace perfbench
