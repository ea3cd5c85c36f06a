// Workload `serve`: open-loop query traffic against a snapshot of a few
// thousand families, built before any timing.
//
//   1. a fixed offered rate (latency at that rate), in stretches that
//      alternate with
//   2. closed-loop bursts of the same query mix (classify_batch), which
//      saturate the workers and give the throughput;
//   3. a fixed rate ladder: each step offers its rate for a fixed time; the
//      highest step whose p99 meets the limit without a growing backlog
//      gives the sustainable open-loop rate.
//
// Queries are mutated fragments of held-out family members (assign path)
// and unrelated ORFs (reject path), families drawn with Zipf skew. Every
// answer is compared with a direct single-threaded FamilyIndex::classify.
// One generator thread plus three QueryService workers: four threads.

#include <algorithm>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "eval/partition_metrics.hpp"
#include "load.hpp"
#include "serve/family_index.hpp"

namespace perfbench {

using namespace gpclust;

namespace {

constexpr std::size_t kFamilies = 1000;
constexpr std::size_t kMaxMembers = 8;
constexpr std::size_t kWorkers = 3;
constexpr int kSetupRepeats = 5;
/// Offered rate of the latency phase, queries per second.
constexpr double kFixedRate = 1500.0;
/// The rate ladder: kLadderStart * kLadderFactor^i, one step per
/// kLadderStepSeconds.
constexpr double kLadderStart = 2000.0;
constexpr double kLadderFactor = 1.25;
constexpr double kLadderStepSeconds = 0.5;
/// A ladder step passes when its p99 (rejects count as misses) stays under
/// this limit and its backlog at the step's end is under
/// kBacklogSeconds worth of its rate.
constexpr double kLatencyLimitMs = 20.0;
constexpr double kBacklogSeconds = 0.01;
/// Shares of the measured duration: fixed-rate stretches and bursts
/// alternate over kChunks rounds, then the ladder takes at most its share.
constexpr double kFixedShare = 0.6;
constexpr double kBurstShare = 0.15;
constexpr double kLadderShare = 0.25;
constexpr int kChunks = 5;
/// Queries per closed-loop burst, drawn like the open loop's.
constexpr std::size_t kBurstQueries = 8000;

serve::ServiceConfig service_config(obs::Tracer* tracer) {
  serve::ServiceConfig config;
  config.num_workers = kWorkers;
  // Deep enough that no step of the ladder is refused admission: overload
  // shows as latency and backlog, not as failed queries.
  config.queue_capacity = 1 << 20;
  config.tracer = tracer;
  return config;
}

/// Pause between load phases so one phase's backlog cannot leak into the
/// next one's latencies.
void drain(serve::QueryService& service) {
  while (true) {
    const serve::ServiceStats s = service.stats();
    if (s.completed + s.rejected_expired + s.rejected_queue_full >=
        s.submitted) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

void run_serve(const Options& options, Result& result) {
  // --- Inputs: a snapshot plus held-out members to query with -----------
  const seq::SyntheticMetagenome metagenome =
      gos_metagenome(options.seed, kFamilies, kMaxMembers);
  seq::SequenceSet indexed;
  std::vector<std::string> held_out;
  std::vector<u32> held_out_family;
  for (std::size_t i = 0; i < metagenome.sequences.size(); ++i) {
    const u32 family = metagenome.family[i];
    const bool last_member = family < kFamilies &&
                             (i + 1 == metagenome.sequences.size() ||
                              metagenome.family[i + 1] != family);
    if (last_member) {
      held_out.push_back(metagenome.sequences[i].residues);
      held_out_family.push_back(family);
    } else {
      indexed.push_back(metagenome.sequences[i]);
    }
  }
  const std::string snapshot_path = options.work_dir + "/serve.gpfi";
  {
    device::DeviceContext ctx(device::DeviceSpec::tesla_k20());
    store::write_snapshot(build_store(indexed, ctx), snapshot_path);
  }
  const QueryPool pool =
      make_query_pool(held_out, held_out_family, 2, options.seed ^ 0x5e7e);

  obs::Tracer tracer;
  SpanLog log(options.trace ? &tracer : nullptr);
  obs::Tracer* trace = options.trace ? &tracer : nullptr;

  // --- Set-up: load the snapshot and start the service -------------------
  std::vector<double> setup_s;
  store::FamilyStore store;
  std::unique_ptr<serve::QueryService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    const double t0 = now_s();
    {
      ScopedSpan span(log, "store.load_snapshot", i);
      store = store::load_snapshot(snapshot_path);
    }
    {
      ScopedSpan span(log, "serve.construct", i);
      service = std::make_unique<serve::QueryService>(store,
                                                      service_config(trace));
    }
    setup_s.push_back(now_s() - t0);
  }
  result.samples("setup_s", setup_s);
  result.value("store.snapshot_bytes",
               static_cast<double>(read_file(snapshot_path).size()));

  // Expected answers: a direct single-threaded classify of every query.
  const serve::FamilyIndex index(store);
  const serve::ClassifyParams params = service->config().classify;
  std::vector<serve::ClassifyResult> expected;
  {
    serve::ClassifyScratch scratch;
    for (const std::string& q : pool.queries) {
      expected.push_back(index.classify(q, params, scratch));
    }
  }
  const auto is_correct = [&](const SentQuery& q,
                              const serve::ClassifyResult& r) {
    return r == expected[q.query];
  };

  util::Xoshiro256 rng(options.seed ^ 0x10ad);
  u64 next_id = 0;
  u64 attempted = 0, failed = 0, rejected = 0, answered = 0;
  double candidates = 0.0;
  // Open-loop outcomes join the run's tallies.
  const auto tally = [&](const LoopOutcome& out) {
    attempted += out.attempted;
    failed += out.rejected + out.wrong;
    rejected += out.rejected;
    for (double c : out.candidates) candidates += c;
    answered += out.candidates.size();
  };

  std::vector<std::string> burst_queries;
  std::vector<u32> burst_ids;
  for (std::size_t i = 0; i < kBurstQueries; ++i) {
    burst_ids.push_back(draw_query(pool, rng));
    burst_queries.push_back(pool.queries[burst_ids.back()]);
  }
  // One closed-loop burst through `target`; returns its wall seconds.
  const auto burst = [&](serve::QueryService& target) {
    const double b0 = now_s();
    const std::vector<serve::QueryOutcome> outcomes =
        target.classify_batch(burst_queries);
    const double wall = now_s() - b0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ++attempted;
      if (outcomes[i].rejected != serve::RejectReason::None) {
        ++rejected;
        ++failed;
      } else if (outcomes[i].result != expected[burst_ids[i]]) {
        ++failed;
      }
    }
    return wall;
  };

  // --- Phases 1 and 3, interleaved: fixed-rate stretches, each followed
  // (untraced) by closed-loop bursts, so that both span the whole run ----
  const double chunk_seconds = kFixedShare * options.seconds / kChunks;
  const double burst_seconds = kBurstShare * options.seconds / kChunks;
  LoopOutcome fixed;
  std::vector<double> burst_walls;
  double backlog_end = 0.0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const double t0 = now_s() + 0.002;
    std::vector<SentQuery> sent;
    {
      ScopedSpan span(log, "bench.fixed_rate", chunk);
      sent = open_loop(*service, pool, rng, kFixedRate, t0, t0 + chunk_seconds,
                       log, next_id);
    }
    const serve::ServiceStats at_end = service->stats();
    backlog_end = static_cast<double>(at_end.submitted - at_end.completed -
                                      at_end.rejected_expired -
                                      at_end.rejected_queue_full);
    next_id += sent.size();
    const LoopOutcome out = collect(sent, wait_all(sent), log, is_correct);
    tally(out);
    fixed.latency_ms.insert(fixed.latency_ms.end(), out.latency_ms.begin(),
                            out.latency_ms.end());
    fixed.lateness_ms.insert(fixed.lateness_ms.end(), out.lateness_ms.begin(),
                             out.lateness_ms.end());
    if (!options.trace) {
      const double bursts_end = now_s() + burst_seconds;
      do {
        burst_walls.push_back(burst(*service));
      } while (now_s() < bursts_end);
    }
  }
  const std::size_t fixed_events = tracer.num_events();
  result.samples("latency_ms", fixed.latency_ms);
  result.samples("lateness_ms", fixed.lateness_ms);
  result.samples("burst_wall_s", burst_walls);
  result.value("burst_queries", static_cast<double>(kBurstQueries));
  result.value("backlog_end", backlog_end);
  result.value("fixed_rate_qps", kFixedRate);

  // --- Phase 2: the rate ladder ------------------------------------------
  json::Array ladder;
  double max_qps = 0.0;
  const double ladder_end = now_s() + kLadderShare * options.seconds;
  for (double rate = kLadderStart; now_s() + kLadderStepSeconds <= ladder_end;
       rate *= kLadderFactor) {
    drain(*service);
    const double t0 = now_s() + 0.002;
    std::vector<SentQuery> sent;
    {
      ScopedSpan span(log, "bench.ladder_step");
      sent = open_loop(*service, pool, rng, rate, t0, t0 + kLadderStepSeconds,
                       log, next_id);
    }
    const double step_end = now_s();
    const serve::ServiceStats s = service->stats();
    const double backlog = static_cast<double>(
        s.submitted - s.completed - s.rejected_expired - s.rejected_queue_full);
    next_id += sent.size();
    const LoopOutcome step = collect(sent, wait_all(sent), log, is_correct);
    tally(step);
    const double p99 = step.rejected * 100 > step.attempted
                           ? std::numeric_limits<double>::max()
                           : nearest_rank(step.latency_ms, 0.99);
    const double delivered =
        static_cast<double>(step.attempted - backlog) / (step_end - t0);
    const bool pass = p99 <= kLatencyLimitMs &&
                      backlog <= kBacklogSeconds * rate;
    ladder.push_back(json::object({{"rate", json::number(rate)},
                                   {"delivered_qps", json::number(delivered)},
                                   {"p99_ms", json::number(std::min(p99, 1e9))},
                                   {"backlog", json::number(backlog)},
                                   {"pass", json::boolean(pass)}}));
    if (!pass) break;
    max_qps = delivered;
  }
  drain(*service);
  result.info("ladder", json::array(std::move(ladder)));
  result.value("query_max_qps", max_qps);
  result.value("latency_limit_ms", kLatencyLimitMs);

  u64 profile_hits = 0, profile_builds = 0;
  if (options.trace) {
    // Traced runs burst through an untraced and a traced service in turn,
    // one service alive at a time; the walls give the tracing overhead.
    const serve::ServiceStats before = service->stats();
    profile_hits = before.profile_hits;
    profile_builds = before.profile_builds;
    service.reset();
    std::vector<double> untraced_walls, traced_walls;
    for (int i = 0; i < 4; ++i) {
      const bool traced = i % 2 == 1;
      obs::Tracer burst_tracer;
      serve::QueryService target(
          store, service_config(traced ? &burst_tracer : nullptr));
      (traced ? traced_walls : untraced_walls).push_back(burst(target));
    }
    result.samples("unit_wall_s", untraced_walls);
    result.samples("traced_wall_s", traced_walls);
  }
  result.value("peak_rss_mb", peak_rss_mb());

  if (service != nullptr) {
    const serve::ServiceStats stats = service->stats();
    profile_hits = stats.profile_hits;
    profile_builds = stats.profile_builds;
  }
  result.value("serve.profile_hit_ratio",
               static_cast<double>(profile_hits) /
                   static_cast<double>(
                       std::max<u64>(1, profile_hits + profile_builds)));
  result.value("serve.rejected", static_cast<double>(rejected));
  result.value("serve.candidates_per_query",
               candidates / static_cast<double>(std::max<u64>(1, answered)));

  // --- Correctness, outside the timed region -----------------------------
  result.check("every served answer equals a direct classify",
               failed == rejected,
               std::to_string(failed - rejected) + " wrong answers");
  result.check("no query rejected or expired", rejected == 0,
               std::to_string(rejected) + " rejected");
  result.attempt(attempted, failed);

  // Served-answer quality against the planted families: assigned queries
  // grouped by family, everything else a singleton.
  {
    std::vector<u32> served(pool.queries.size());
    const u32 unassigned_base = static_cast<u32>(store.num_families);
    for (std::size_t q = 0; q < pool.queries.size(); ++q) {
      served[q] = expected[q].outcome == serve::ClassifyOutcome::Assigned
                      ? expected[q].family
                      : unassigned_base + static_cast<u32>(q);
    }
    const eval::PairConfusion quality =
        eval::compare_partitions(served, pool.label);
    result.value("family_ppv", quality.ppv());
    result.value("family_se", quality.sensitivity());
  }

  // --- Traced run: seed/score versus decide split, tracing overhead ------
  if (options.trace) {
    serve::ClassifyScratch scratch;
    double score_s = 0.0, decide_s = 0.0;
    bool split_ok = true;
    for (std::size_t q = 0; q < pool.queries.size(); ++q) {
      const double a = now_s();
      const serve::CandidateScores scores =
          index.score_candidates(pool.queries[q], params, scratch);
      const double b = now_s();
      const serve::ClassifyResult r = index.decide(pool.queries[q], params, scores);
      decide_s += now_s() - b;
      score_s += b - a;
      split_ok = split_ok && r == expected[q];
    }
    result.check("score_candidates + decide equals classify", split_ok);
    result.value("serve.score_candidates_s", score_s);
    result.value("serve.decide_s", decide_s);
    result.value("replay_queries", static_cast<double>(pool.queries.size()));

    // Per-query serve spans of the fixed-rate phase only: the ladder's
    // overloaded last step would swamp them.
    add_serve_span_samples(tracer, fixed_events, result);
    result.set_trace(log, tracer);
  }
}

}  // namespace perfbench
