// Query-service throughput and latency: classifies a synthetic metagenome
// back against its own family-index snapshot across worker-pool sizes and
// representative-profile cache capacities, then demonstrates bounded-queue
// backpressure under deliberate overload. Every number printed here is
// HOST-MEASURED wall time on this machine (the serving path never touches
// the modeled device); latency quantiles come from the service's merged
// log2 histogram.
//
// Note the build host has one CPU core: extra workers buy concurrency
// bookkeeping, not parallel speedup — the interesting columns are the
// latency distribution and the cache hit rate, not cross-row throughput.
//
// Flags: --quick (tiny run for CI smoke), --families=N (workload scale),
//        --seed=N (family-model seed), --queries=N (batch size per row,
//        default = whole workload), --sweep-families=N (largest point of
//        the seed sweep), --sweep-queries=N (queries per sweep
//        point), --json=PATH (machine-readable results, schema in
//        docs/bench_json.md).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "align/homology_graph.hpp"
#include "core/serial_pclust.hpp"
#include "obs/json.hpp"
#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "serve/bucket_index.hpp"
#include "serve/query_service.hpp"
#include "serve/sharded_service.hpp"
#include "store/snapshot.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace gpclust {
namespace {

struct SweepRow {
  std::size_t workers = 0;
  std::size_t cache = 0;
  std::size_t queries = 0;
  std::size_t assigned = 0;
  double wall_s = 0;
  obs::Histogram latency;
  serve::ServiceStats stats;
};

SweepRow run_sweep(const store::FamilyStore& store,
                   const std::vector<std::string>& queries,
                   std::size_t workers, std::size_t cache) {
  SweepRow row;
  row.workers = workers;
  row.cache = cache;
  row.queries = queries.size();
  serve::ServiceConfig config;
  config.num_workers = workers;
  config.queue_capacity = queries.size() + 1;  // admission never the limiter
  config.profile_cache_capacity = cache;
  serve::QueryService service(store, config);
  util::WallTimer timer;
  const auto outcomes = service.classify_batch(queries);
  row.wall_s = timer.seconds();
  for (const auto& outcome : outcomes) {
    if (outcome.rejected == serve::RejectReason::None &&
        outcome.result.outcome == serve::ClassifyOutcome::Assigned) {
      ++row.assigned;
    }
  }
  row.latency = service.latency_histogram();
  row.stats = service.stats();
  return row;
}

u64 splitmix(u64& state) {
  state += 0x9e3779b97f4a7c15ull;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Point-mutates `rate` of the residues (standard-alphabet substitutions,
/// deterministic in `seed`) so the sweep's banding recall is non-trivial.
std::string mutate_query(std::string_view residues, u64 seed, double rate) {
  std::string out(residues);
  u64 state = seed;
  for (char& c : out) {
    const double u =
        static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
    if (u < rate) {
      c = seq::kResidues[splitmix(state) % seq::kNumStandardResidues];
    }
  }
  return out;
}

/// Exact quantile over a sorted latency vector (the sweep records every
/// per-query wall time, so no histogram approximation is needed).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  GPCLUST_CHECK(!sorted.empty(), "quantile of an empty sample");
  const auto pos = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(sorted.size() - 1, pos)];
}

}  // namespace
}  // namespace gpclust

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  // --- Workload: demo metagenome -> families -> snapshot-shaped store ----
  seq::FamilyModelConfig mcfg;
  mcfg.num_families =
      static_cast<std::size_t>(args.get_int("families", quick ? 12 : 40));
  mcfg.min_members = 4;
  mcfg.max_members = 16;
  mcfg.substitution_rate = 0.08;
  mcfg.fragment_min_fraction = 0.8;
  mcfg.seed = static_cast<u64>(args.get_int("seed", 42));
  const auto mg = seq::generate_metagenome(mcfg);
  const auto graph = align::build_homology_graph(mg.sequences);
  core::ShinglingParams params;
  params.c1 = 80;
  params.c2 = 40;
  const auto clustering = core::SerialShingler(params).cluster(graph);
  const auto store =
      store::build_family_store(mg.sequences, clustering.labels());

  std::vector<std::string> queries;
  for (const auto& s : mg.sequences) queries.push_back(s.residues);
  const auto num_queries = static_cast<std::size_t>(
      args.get_int("queries", static_cast<i64>(queries.size())));
  if (num_queries < queries.size()) queries.resize(num_queries);

  std::printf("workload: %zu sequences, %llu families, %zu representatives "
              "(k=%llu); %zu queries per row\n",
              store.num_sequences(),
              static_cast<unsigned long long>(store.num_families),
              store.representatives.size(),
              static_cast<unsigned long long>(store.kmer_k), queries.size());
  std::printf("all times below are host-measured wall seconds\n\n");

  // --- Sweep: workers x profile-cache capacity ---------------------------
  obs::json::Array json_rows;
  std::printf("%8s %6s %10s %10s %10s %10s %10s %8s\n", "workers", "cache",
              "wall", "queries/s", "p50", "p95", "p99", "hit%");
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    for (const std::size_t cache : {std::size_t{4}, std::size_t{64}}) {
      const auto row = run_sweep(store, queries, workers, cache);
      const double lookups = static_cast<double>(row.stats.profile_hits +
                                                 row.stats.profile_builds);
      const double hit_rate =
          lookups > 0
              ? static_cast<double>(row.stats.profile_hits) / lookups
              : 0.0;
      std::printf("%8zu %6zu %9.3fs %10.0f %9.2fms %9.2fms %9.2fms %7.1f%%\n",
                  row.workers, row.cache, row.wall_s,
                  static_cast<double>(row.queries) / row.wall_s,
                  1e3 * row.latency.p50(), 1e3 * row.latency.p95(),
                  1e3 * row.latency.p99(), 100.0 * hit_rate);
      json_rows.push_back(obs::json::object({
          {"workers", obs::json::number(static_cast<double>(row.workers))},
          {"profile_cache", obs::json::number(static_cast<double>(row.cache))},
          {"queries", obs::json::number(static_cast<double>(row.queries))},
          {"assigned", obs::json::number(static_cast<double>(row.assigned))},
          {"wall_s", obs::json::number(row.wall_s)},
          {"queries_per_s",
           obs::json::number(static_cast<double>(row.queries) / row.wall_s)},
          {"latency_p50_s", obs::json::number(row.latency.p50())},
          {"latency_p95_s", obs::json::number(row.latency.p95())},
          {"latency_p99_s", obs::json::number(row.latency.p99())},
          {"latency_mean_s", obs::json::number(row.latency.mean_seconds())},
          {"latency_max_s", obs::json::number(row.latency.max_seconds())},
          {"profile_hits",
           obs::json::number(static_cast<double>(row.stats.profile_hits))},
          {"profile_builds",
           obs::json::number(static_cast<double>(row.stats.profile_builds))},
      }));
    }
  }

  // --- Overload: bounded queue + paused workers => counted rejects -------
  // start_paused fills the queue deterministically; with admission Off the
  // (queries - capacity) overflow submissions reject immediately instead
  // of queueing unbounded latency. resume() then drains every admitted
  // query — backpressure sheds load, it never loses accepted work.
  serve::ServiceConfig overload;
  overload.num_workers = 1;
  overload.queue_capacity = std::max<std::size_t>(4, queries.size() / 8);
  overload.start_paused = true;
  std::size_t completed = 0;
  serve::ServiceStats ostats;
  {
    serve::QueryService service(store, overload);
    std::vector<std::future<serve::QueryOutcome>> futures;
    for (const auto& query : queries)
      futures.push_back(service.submit(query));
    service.resume();
    for (auto& future : futures) {
      if (future.get().rejected == serve::RejectReason::None) ++completed;
    }
    ostats = service.stats();
  }
  std::printf("\noverload (queue=%zu, admission=off, workers paused during "
              "submission):\n  %llu submitted, %llu accepted, %llu rejected "
              "queue-full, %zu completed\n",
              overload.queue_capacity,
              static_cast<unsigned long long>(ostats.submitted),
              static_cast<unsigned long long>(ostats.accepted),
              static_cast<unsigned long long>(ostats.rejected_queue_full),
              completed);
  GPCLUST_CHECK(ostats.rejected_queue_full > 0,
                "overload run failed to engage backpressure");
  GPCLUST_CHECK(ostats.accepted == completed,
                "an admitted query did not complete");

  // --- Sharded serving tier: scatter-gather + fail-over ------------------
  // Same queries through the DESIGN.md §12 tier. Every row's answers are
  // checked digest-identical to single-node classification (the kill row
  // loses rank 1 mid-run and fails over to the surviving replicas).
  // Latency here includes the router hop and the scatter-gather fan-out,
  // so it is not comparable to the single-node rows above; the fail-over
  // counters are scheduling-dependent (how much was in flight at death)
  // and compare_bench.py treats them as informational.
  u64 expected_digest = 0;
  {
    const serve::FamilyIndex index(store);
    serve::ClassifyScratch scratch;
    std::vector<serve::ClassifyResult> expected;
    for (const auto& q : queries) {
      expected.push_back(index.classify(q, {}, scratch));
    }
    expected_digest = serve::results_digest(expected);
  }
  struct ShardedRow {
    std::size_t ranks, replication;
    bool kill;
  };
  obs::json::Array sharded_rows;
  std::printf("\nsharded tier (digest-checked against single-node):\n");
  std::printf("%6s %5s %10s %8s %10s %10s %10s %6s %8s %9s\n", "ranks",
              "repl", "fault", "wall", "queries/s", "p50", "p99", "deaths",
              "reissues", "failovers");
  for (const ShardedRow& spec : {ShardedRow{4, 1, false}, ShardedRow{4, 2, false},
                                 ShardedRow{4, 2, true}}) {
    serve::ShardedConfig config;
    config.num_ranks = spec.ranks;
    config.replication = spec.replication;
    config.num_workers = 2;
    config.resilience.mode = fault::ResilienceMode::Fallback;
    if (spec.kill) {
      config.kill_rank = 1;
      config.kill_after_requests = queries.size() / 2;  // mid-run
    }
    serve::ShardedStats stats;
    util::WallTimer timer;
    const auto results =
        serve::sharded_classify_batch(store, queries, config, &stats);
    const double wall = timer.seconds();
    GPCLUST_CHECK(serve::results_digest(results) == expected_digest,
                  "sharded answers diverged from single-node");
    const char* fault = spec.kill ? "rank_down@1" : "none";
    std::printf("%6zu %5zu %10s %7.3fs %10.0f %9.2fms %9.2fms %6llu %8llu "
                "%9llu\n",
                spec.ranks, spec.replication, fault, wall,
                static_cast<double>(queries.size()) / wall,
                1e3 * stats.latency.p50(), 1e3 * stats.latency.p99(),
                static_cast<unsigned long long>(stats.rank_failures),
                static_cast<unsigned long long>(stats.query_reissues),
                static_cast<unsigned long long>(stats.shard_failovers));
    sharded_rows.push_back(obs::json::object({
        {"ranks", obs::json::number(static_cast<double>(spec.ranks))},
        {"replication",
         obs::json::number(static_cast<double>(spec.replication))},
        {"fault", obs::json::string(fault)},
        {"wall_s", obs::json::number(wall)},
        {"queries_per_s",
         obs::json::number(static_cast<double>(queries.size()) / wall)},
        {"latency_p50_s", obs::json::number(stats.latency.p50())},
        {"latency_p99_s", obs::json::number(stats.latency.p99())},
        {"rank_failures",
         obs::json::number(static_cast<double>(stats.rank_failures))},
        {"query_reissues",
         obs::json::number(static_cast<double>(stats.query_reissues))},
        {"shard_failovers",
         obs::json::number(static_cast<double>(stats.shard_failovers))},
    }));
  }
  std::printf("all three sharded rows digest-identical to single-node\n");

  // --- Seed-index sweep: p50/p99 vs family count (DESIGN.md §13) ---------
  // The postings scan's seed stage touches every representative that
  // contains a query k-mer, so its cost grows with the total
  // representative count; the bucketed index nominates candidates by
  // min-hash band collisions, so its cost tracks how many reps actually
  // resemble the query. The sweep pins that contrast in the regime where
  // it matters: k=3 postings (short-fragment-sensitive seeding — the
  // small code space makes chance k-mer sharing, and therefore the
  // postings scan, scale with family count) over stores of growing family
  // count, with 64-hash signatures so the default 32-band slicing probes
  // 2-row bands. Queries are point-mutated members of the first point's
  // families — present in every store (family labels are emitted
  // family-by-family, so "family < F" is a prefix), so only the index
  // size changes across points, never the query set or its true matches.
  // Latencies are exact quantiles over per-query host wall times on a
  // profile-warm scratch, and banding recall is measured against the
  // postings path's assignments.
  const auto sweep_max_families = static_cast<std::size_t>(
      args.get_int("sweep-families", quick ? 400 : 12000));
  const auto sweep_num_queries = static_cast<std::size_t>(
      args.get_int("sweep-queries", quick ? 160 : 200));
  const std::size_t sweep_kmer_k = 3;
  const std::size_t sweep_sig_hashes = 64;
  const serve::BucketIndexParams banding{32, 1};
  obs::json::Array seed_rows;
  {
    seq::FamilyModelConfig scfg;
    scfg.num_families = sweep_max_families;
    scfg.min_members = 4;
    scfg.max_members = 8;
    scfg.substitution_rate = 0.08;
    scfg.fragment_min_fraction = 0.8;
    scfg.seed = 97;
    const auto smg = seq::generate_metagenome(scfg);

    std::vector<std::size_t> family_points;
    for (const std::size_t divisor : quick ? std::vector<std::size_t>{9, 3, 1}
                                           : std::vector<std::size_t>{27, 9, 3,
                                                                      1}) {
      family_points.push_back(sweep_max_families / divisor);
    }

    // Queries live in the smallest store, hence in all of them.
    const auto prefix_of = [&](std::size_t families) {
      return static_cast<std::size_t>(
          std::upper_bound(smg.family.begin(), smg.family.end(),
                           static_cast<u32>(families - 1)) -
          smg.family.begin());
    };
    const std::size_t query_pool = prefix_of(family_points.front());
    std::vector<std::string> sweep_queries;
    const std::size_t stride =
        std::max<std::size_t>(1, query_pool / sweep_num_queries);
    for (std::size_t i = 0;
         i < query_pool && sweep_queries.size() < sweep_num_queries;
         i += stride) {
      sweep_queries.push_back(
          mutate_query(smg.sequences[i].residues, 0x5eed0 + i, 0.04));
    }

    struct Measured {
      std::vector<serve::ClassifyResult> results;
      std::vector<double> latency;  // sorted seconds
      std::size_t assigned = 0;
    };
    const auto measure = [&](auto&& classify_one) {
      Measured m;
      serve::ClassifyScratch scratch(4096);
      // Warm pass: builds every candidate profile the (deterministic)
      // timed pass will touch, so the quantiles measure the seed + SW
      // stages, not first-touch profile construction.
      for (const auto& q : sweep_queries) classify_one(q, scratch);
      for (const auto& q : sweep_queries) {
        util::WallTimer timer;
        m.results.push_back(classify_one(q, scratch));
        m.latency.push_back(timer.seconds());
      }
      std::sort(m.latency.begin(), m.latency.end());
      for (const auto& r : m.results) {
        if (r.outcome == serve::ClassifyOutcome::Assigned) ++m.assigned;
      }
      return m;
    };

    std::printf("\nseed sweep (k=%zu postings, %zu-hash signatures, "
                "banding %llu x %zu; %zu mutated-member queries):\n",
                sweep_kmer_k, sweep_sig_hashes,
                static_cast<unsigned long long>(banding.num_bands),
                sweep_sig_hashes / banding.num_bands, sweep_queries.size());
    std::printf("%9s %7s %9s %9s %10s %10s %9s %7s %8s\n", "families", "reps",
                "postings", "index", "p50", "p99", "assigned", "recall",
                "p99-gain");
    for (const std::size_t families : family_points) {
      const std::size_t prefix = prefix_of(families);
      const seq::SequenceSet subset(smg.sequences.begin(),
                                    smg.sequences.begin() + prefix);
      const std::vector<u32> labels(smg.family.begin(),
                                    smg.family.begin() + prefix);
      store::StoreBuildConfig sb;
      sb.k = sweep_kmer_k;
      sb.sig_hashes = sweep_sig_hashes;
      const auto sstore = store::build_family_store(subset, labels, sb);
      const serve::FamilyIndex sindex(sstore);
      const serve::BucketIndex banded(sstore, banding);

      const auto postings_run = measure(
          [&](const std::string& q, serve::ClassifyScratch& s) {
            return sindex.classify(q, {}, s);
          });
      const auto bucketed_run = measure(
          [&](const std::string& q, serve::ClassifyScratch& s) {
            return sindex.classify(q, {}, s, banded);
          });

      // Banding recall: of the queries the postings path assigns, the
      // fraction the banding assigns to the same family.
      std::size_t assigned_by_postings = 0, same_family = 0;
      for (std::size_t i = 0; i < sweep_queries.size(); ++i) {
        if (postings_run.results[i].outcome !=
            serve::ClassifyOutcome::Assigned) {
          continue;
        }
        ++assigned_by_postings;
        if (bucketed_run.results[i].outcome ==
                serve::ClassifyOutcome::Assigned &&
            bucketed_run.results[i].family == postings_run.results[i].family) {
          ++same_family;
        }
      }
      const double recall =
          assigned_by_postings > 0
              ? static_cast<double>(same_family) /
                    static_cast<double>(assigned_by_postings)
              : 1.0;
      const double p99_postings = quantile_sorted(postings_run.latency, 0.99);
      const double p99_bucketed = quantile_sorted(bucketed_run.latency, 0.99);
      const double p99_gain = p99_postings / p99_bucketed;

      std::printf("%9zu %7zu %9zu %9s %8.3fms %8.3fms %5zu/%-3zu %7s %8s\n",
                  families, sstore.representatives.size(),
                  sstore.postings.size(), "postings",
                  1e3 * quantile_sorted(postings_run.latency, 0.50),
                  1e3 * p99_postings, postings_run.assigned,
                  sweep_queries.size(), "-", "-");
      char recall_buf[16], gain_buf[16];
      std::snprintf(recall_buf, sizeof(recall_buf), "%.3f", recall);
      std::snprintf(gain_buf, sizeof(gain_buf), "%.1fx", p99_gain);
      std::printf("%9s %7s %9s %9s %8.3fms %8.3fms %5zu/%-3zu %7s %8s\n", "",
                  "", "", "bucketed",
                  1e3 * quantile_sorted(bucketed_run.latency, 0.50),
                  1e3 * p99_bucketed, bucketed_run.assigned,
                  sweep_queries.size(), recall_buf, gain_buf);

      seed_rows.push_back(obs::json::object({
          {"families", obs::json::number(static_cast<double>(families))},
          {"representatives",
           obs::json::number(
               static_cast<double>(sstore.representatives.size()))},
          {"postings_entries",
           obs::json::number(static_cast<double>(sstore.postings.size()))},
          {"seed_index", obs::json::string("postings")},
          {"assigned",
           obs::json::number(static_cast<double>(postings_run.assigned))},
          {"latency_p50_s",
           obs::json::number(quantile_sorted(postings_run.latency, 0.50))},
          {"latency_p99_s", obs::json::number(p99_postings)},
      }));
      seed_rows.push_back(obs::json::object({
          {"families", obs::json::number(static_cast<double>(families))},
          {"representatives",
           obs::json::number(
               static_cast<double>(sstore.representatives.size()))},
          {"postings_entries",
           obs::json::number(static_cast<double>(sstore.postings.size()))},
          {"seed_index", obs::json::string("bucketed")},
          {"assigned",
           obs::json::number(static_cast<double>(bucketed_run.assigned))},
          {"latency_p50_s",
           obs::json::number(quantile_sorted(bucketed_run.latency, 0.50))},
          {"latency_p99_s", obs::json::number(p99_bucketed)},
          {"recall", obs::json::number(recall)},
          {"p99_speedup", obs::json::number(p99_gain)},
      }));

      if (families == family_points.back()) {
        GPCLUST_CHECK(recall >= 0.95,
                      "banding recall fell below 0.95 at the "
                      "largest sweep point");
        if (!quick) {
          GPCLUST_CHECK(p99_postings >= 5.0 * p99_bucketed,
                        "bucketed p99 gain fell below 5x at the largest "
                        "sweep point");
        }
      }
    }
  }

  const auto json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    const auto doc = obs::json::object({
        {"bench", obs::json::string("serve")},
        {"time_domain", obs::json::string("host_measured")},
        {"workload",
         obs::json::object({
             {"sequences",
              obs::json::number(static_cast<double>(store.num_sequences()))},
             {"families",
              obs::json::number(static_cast<double>(store.num_families))},
             {"representatives",
              obs::json::number(
                  static_cast<double>(store.representatives.size()))},
             {"kmer_k",
              obs::json::number(static_cast<double>(store.kmer_k))},
             {"queries",
              obs::json::number(static_cast<double>(queries.size()))},
         })},
        {"rows", obs::json::array(json_rows)},
        {"sharded", obs::json::array(sharded_rows)},
        {"seed_sweep",
         obs::json::object({
             {"kmer_k",
              obs::json::number(static_cast<double>(sweep_kmer_k))},
             {"sig_hashes",
              obs::json::number(static_cast<double>(sweep_sig_hashes))},
             {"num_bands",
              obs::json::number(static_cast<double>(banding.num_bands))},
             {"min_band_hits",
              obs::json::number(static_cast<double>(banding.min_band_hits))},
             {"queries",
              obs::json::number(static_cast<double>(sweep_num_queries))},
             {"rows", obs::json::array(seed_rows)},
         })},
        {"overload",
         obs::json::object({
             {"queue_capacity",
              obs::json::number(
                  static_cast<double>(overload.queue_capacity))},
             {"submitted",
              obs::json::number(static_cast<double>(ostats.submitted))},
             {"accepted",
              obs::json::number(static_cast<double>(ostats.accepted))},
             {"rejected_queue_full",
              obs::json::number(
                  static_cast<double>(ostats.rejected_queue_full))},
             {"completed", obs::json::number(static_cast<double>(completed))},
         })},
    });
    std::ofstream out(json_path);
    GPCLUST_CHECK(out.good(), "cannot open --json file");
    out << obs::json::dump(doc) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
