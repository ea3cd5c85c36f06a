#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

using namespace gpclust;

namespace {

/// Zipf exponent of the family draw: a hot head of a few dozen families
/// and a tail far wider than one worker's 64-entry profile LRU. Below 1 so
/// that no single family's lengths set a seed's query cost (the top family
/// takes ~6% of the draws).
constexpr double kZipfExponent = 0.8;
constexpr double kUnrelatedShare = 0.25;
constexpr double kQuerySubstitutionRate = 0.05;

std::chrono::steady_clock::time_point at(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

}  // namespace

QueryPool make_query_pool(const std::vector<std::string>& sources,
                          const std::vector<u32>& families,
                          std::size_t per_source, u64 seed) {
  util::Xoshiro256 rng(seed);
  QueryPool pool;
  u32 max_family = 0;
  std::vector<std::vector<u32>> by_family;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const u32 family = families[i];
    max_family = std::max(max_family, family);
    if (by_family.size() <= family) by_family.resize(family + 1);
    for (std::size_t k = 0; k < per_source; ++k) {
      by_family[family].push_back(static_cast<u32>(pool.queries.size()));
      pool.queries.push_back(
          mutated_fragment(sources[i], kQuerySubstitutionRate, rng));
      pool.label.push_back(family);
    }
  }
  for (auto& members : by_family) {
    if (!members.empty()) pool.by_rank.push_back(std::move(members));
  }
  // Zipf ranks are a seeded shuffle of the families.
  for (std::size_t i = pool.by_rank.size(); i > 1; --i) {
    std::swap(pool.by_rank[i - 1], pool.by_rank[rng.next_below(i)]);
  }
  double total = 0.0;
  for (std::size_t r = 0; r < pool.by_rank.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    pool.rank_cdf.push_back(total);
  }
  for (double& c : pool.rank_cdf) c /= total;

  const std::size_t unrelated = std::max<std::size_t>(
      1, pool.queries.size() / 3);  // a quarter of the whole pool
  for (std::size_t i = 0; i < unrelated; ++i) {
    pool.unrelated.push_back(static_cast<u32>(pool.queries.size()));
    pool.queries.push_back(random_protein(80 + rng.next_below(171), rng));
    pool.label.push_back(max_family + 1 + static_cast<u32>(i));
  }
  return pool;
}

u32 draw_query(const QueryPool& pool, util::Xoshiro256& rng) {
  if (rng.next_double() < kUnrelatedShare) {
    return pool.unrelated[rng.next_below(pool.unrelated.size())];
  }
  const double u = rng.next_double();
  const auto it = std::lower_bound(pool.rank_cdf.begin(), pool.rank_cdf.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - pool.rank_cdf.begin()),
      pool.by_rank.size() - 1);
  const auto& members = pool.by_rank[rank];
  return members[rng.next_below(members.size())];
}

std::vector<SentQuery> open_loop(serve::QueryService& service,
                                 const QueryPool& pool,
                                 util::Xoshiro256& rng, double rate,
                                 double start, double end, SpanLog& log,
                                 u64 first_id, std::stop_token stop) {
  std::vector<SentQuery> sent;
  sent.reserve(static_cast<std::size_t>(std::max(0.0, (end - start) * rate)) +
               1);
  for (u64 k = 0;; ++k) {
    const double scheduled = start + static_cast<double>(k) / rate;
    if (scheduled >= end) break;
    if (stop.stop_requested()) break;
    std::this_thread::sleep_until(at(scheduled));
    SentQuery q;
    q.sent_at = now_s();
    q.lateness_s = std::max(0.0, q.sent_at - scheduled);
    q.query = draw_query(pool, rng);
    q.id = first_id + k;
    q.generation = service.generation();
    q.submitted_at = log.now();
    q.outcome = service.submit(pool.queries[q.query]);
    log.record("serve.submit", q.id, q.submitted_at, log.now(), "load");
    sent.push_back(std::move(q));
  }
  return sent;
}

std::vector<serve::QueryOutcome> wait_all(std::vector<SentQuery>& sent) {
  std::vector<serve::QueryOutcome> outcomes;
  outcomes.reserve(sent.size());
  for (SentQuery& q : sent) outcomes.push_back(q.outcome.get());
  return outcomes;
}

LoopOutcome collect(
    const std::vector<SentQuery>& sent,
    const std::vector<serve::QueryOutcome>& outcomes, SpanLog& log,
    const std::function<bool(const SentQuery&, const serve::ClassifyResult&)>&
        is_correct) {
  LoopOutcome out;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const SentQuery& q = sent[i];
    const serve::QueryOutcome& outcome = outcomes[i];
    ++out.attempted;
    out.lateness_ms.push_back(1e3 * q.lateness_s);
    if (outcome.rejected != serve::RejectReason::None) {
      ++out.rejected;
      continue;
    }
    const double latency = q.lateness_s + outcome.latency_seconds;
    out.latency_ms.push_back(1e3 * latency);
    out.candidates.push_back(outcome.result.num_candidates);
    if (!is_correct(q, outcome.result)) ++out.wrong;
    log.record("serve.query", q.id, q.submitted_at - q.lateness_s,
               q.submitted_at + outcome.latency_seconds, "query");
  }
  return out;
}

void add_serve_span_samples(const obs::Tracer& tracer, std::size_t num_events,
                            Result& result) {
  std::vector<double> wait_ms, classify_ms;
  const std::vector<obs::TraceEvent> events = tracer.events();
  for (std::size_t i = 0; i < std::min(num_events, events.size()); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.name == "serve.wait") wait_ms.push_back(1e3 * e.duration_seconds);
    if (e.name == "serve.classify") {
      classify_ms.push_back(1e3 * e.duration_seconds);
    }
  }
  result.samples("serve.wait_ms", wait_ms);
  result.samples("serve.classify_ms", classify_ms);
}

}  // namespace perfbench
