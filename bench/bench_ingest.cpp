// Streaming-ingest amortization (DESIGN.md §15): replays a synthetic
// metagenome through an IngestSession in 1/2/4/8 batches and compares the
// amortized per-batch host seconds against the from-scratch cascade +
// shingling run — every split is digest-checked bit-identical to that
// reference first. A second scenario appends one small tail batch to an
// already-clustered base and reports the incremental cost, the fraction
// of vertices re-shingled, and the delta-link size; the driver asserts
// the promise that makes the subsystem worth its complexity on work
// counts, not on a wall-clock ratio: the append verifies at most 1/5 of
// the rebuild's candidate pairs and re-shingles at most 1/5 of its
// vertices. Every time printed here is HOST-MEASURED wall time (serial
// cluster engine, host verify backend — the modeled device timeline is
// never mixed in).
//
// Flags: --quick (tiny run for CI smoke), --families=N (workload scale),
//        --seed=N (family-model seed), --json=PATH (machine-readable
//        results, schema in docs/bench_json.md).

#include <cstdio>
#include <fstream>
#include <vector>

#include "align/homology_graph.hpp"
#include "core/serial_pclust.hpp"
#include "ingest/ingest_session.hpp"
#include "obs/json.hpp"
#include "seq/family_model.hpp"
#include "store/delta.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace gpclust {
namespace {

ingest::IngestConfig bench_config() {
  ingest::IngestConfig config;
  config.shingling.c1 = 80;
  config.shingling.c2 = 40;
  return config;
}

/// Splits `all` into `count` contiguous batches of near-equal size.
std::vector<seq::SequenceSet> split_batches(const seq::SequenceSet& all,
                                            std::size_t count) {
  std::vector<seq::SequenceSet> batches;
  const std::size_t n = all.size();
  std::size_t offset = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t size = n / count + (b < n % count ? 1 : 0);
    batches.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(offset),
                         all.begin() + static_cast<std::ptrdiff_t>(offset +
                                                                   size));
    offset += size;
  }
  return batches;
}

}  // namespace
}  // namespace gpclust

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  // --- Workload ----------------------------------------------------------
  seq::FamilyModelConfig mcfg;
  mcfg.num_families =
      static_cast<std::size_t>(args.get_int("families", quick ? 10 : 150));
  mcfg.min_members = 4;
  mcfg.max_members = 10;
  mcfg.substitution_rate = 0.08;
  mcfg.fragment_min_fraction = 0.8;
  mcfg.num_background_orfs = mcfg.num_families;
  mcfg.seed = static_cast<u64>(args.get_int("seed", 44));
  const seq::SequenceSet sequences = seq::generate_metagenome(mcfg).sequences;
  const ingest::IngestConfig config = bench_config();

  // --- Reference: from-scratch cascade + shingling over everything -------
  util::WallTimer rebuild_timer;
  align::HomologyGraphStats rebuild_stats;
  const graph::CsrGraph full_graph =
      align::build_homology_graph(sequences, config.graph, &rebuild_stats);
  const core::Clustering reference =
      core::SerialShingler(config.shingling).cluster(full_graph);
  const double rebuild_s = rebuild_timer.seconds();
  const u64 expected = reference.digest();

  std::printf("workload: %zu sequences, %zu families (model seed %llu); "
              "from-scratch cascade + shingling: %.3fs\n",
              sequences.size(), reference.num_clusters(),
              static_cast<unsigned long long>(mcfg.seed), rebuild_s);
  std::printf("all times below are host-measured wall seconds "
              "(serial engine, host verify)\n\n");

  // --- Batch sweep: the same input in 1/2/4/8 ingest batches -------------
  // Every row is digest-checked against the from-scratch reference before
  // its timing is reported (the equivalence contract, not a benchmark
  // setting). The last batch's touched fraction is the steady-state
  // number: how much of the standing graph one more batch re-shingles.
  obs::json::Array sweep_rows;
  std::printf("%8s %10s %14s %10s %10s %10s\n", "batches", "total",
              "amortized", "touched%", "pairs", "families");
  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    const auto batches = split_batches(sequences, count);
    ingest::IngestSession session(config);
    double total_s = 0.0;
    double last_touched = 0.0;
    std::size_t pairs = 0;
    for (const auto& batch : batches) {
      util::WallTimer timer;
      const ingest::IngestBatchStats stats = session.ingest(batch);
      total_s += timer.seconds();
      last_touched = stats.touched_fraction;
      pairs += stats.num_candidate_pairs;
    }
    GPCLUST_CHECK(session.partition_digest() == expected,
                  "batched ingest diverged from the from-scratch partition");
    const double amortized = total_s / static_cast<double>(count);
    std::printf("%8zu %9.3fs %13.3fs %9.1f%% %10zu %10zu\n", count, total_s,
                amortized, 100.0 * last_touched, pairs,
                session.num_families());
    sweep_rows.push_back(obs::json::object({
        {"batches", obs::json::number(static_cast<double>(count))},
        {"total_s", obs::json::number(total_s)},
        {"amortized_batch_s", obs::json::number(amortized)},
        {"last_touched_fraction", obs::json::number(last_touched)},
        {"candidate_pairs", obs::json::number(static_cast<double>(pairs))},
        {"families",
         obs::json::number(static_cast<double>(session.num_families()))},
    }));
  }

  // --- Small append: one tail batch against a standing base --------------
  // The subsystem's reason to exist: appending ~5% of the input to an
  // already-clustered session must cost a small fraction of re-running
  // the cascade over everything. The delta link is what a day-N pipeline
  // ships instead of a full snapshot.
  const std::size_t tail =
      std::max<std::size_t>(4, sequences.size() / 20);
  const seq::SequenceSet base_set(sequences.begin(),
                                  sequences.end() -
                                      static_cast<std::ptrdiff_t>(tail));
  const seq::SequenceSet tail_set(sequences.end() -
                                      static_cast<std::ptrdiff_t>(tail),
                                  sequences.end());
  ingest::IngestSession session(config);
  session.ingest(base_set);
  const store::FamilyStore base_store = session.store();
  util::WallTimer append_timer;
  const ingest::IngestBatchStats append_stats = session.ingest(tail_set);
  const double append_s = append_timer.seconds();
  GPCLUST_CHECK(session.partition_digest() == expected,
                "appended session diverged from the from-scratch partition");
  // The delta link a day-N pipeline ships instead of a full snapshot
  // (built out of band: snapshot serialization is not part of either
  // side's timed path).
  const store::SnapshotDelta delta =
      store::build_snapshot_delta(base_store, session.store(), 1);
  const std::size_t delta_bytes = store::serialize_delta(delta).size();
  const double speedup = rebuild_s / append_s;

  std::printf("\nsmall append (%zu of %zu sequences, %.1f%%):\n", tail,
              sequences.size(),
              100.0 * static_cast<double>(tail) /
                  static_cast<double>(sequences.size()));
  std::printf("  from-scratch rebuild %.3fs, incremental append %.3fs "
              "(%.1fx), %.1f%% of vertices re-shingled, delta link %zu "
              "bytes\n",
              rebuild_s, append_s, speedup,
              100.0 * append_stats.touched_fraction, delta_bytes);
  GPCLUST_CHECK(5 * append_stats.num_candidate_pairs <=
                    rebuild_stats.num_candidate_pairs,
                "incremental append verified more than 1/5 of the "
                "rebuild's candidate pairs");
  GPCLUST_CHECK(5 * append_stats.num_touched_vertices <= sequences.size(),
                "incremental append re-shingled more than 1/5 of the "
                "vertices");

  const auto json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    const auto doc = obs::json::object({
        {"bench", obs::json::string("ingest")},
        {"time_domain", obs::json::string("host_measured")},
        {"workload",
         obs::json::object({
             {"sequences",
              obs::json::number(static_cast<double>(sequences.size()))},
             {"model_families",
              obs::json::number(static_cast<double>(mcfg.num_families))},
             {"clustered_families",
              obs::json::number(static_cast<double>(reference.num_clusters()))},
         })},
        {"rebuild_s", obs::json::number(rebuild_s)},
        {"batch_sweep", obs::json::array(sweep_rows)},
        {"append",
         obs::json::object({
             {"base_sequences",
              obs::json::number(static_cast<double>(base_set.size()))},
             {"appended_sequences",
              obs::json::number(static_cast<double>(tail))},
             {"append_s", obs::json::number(append_s)},
             {"rebuild_speedup", obs::json::number(speedup)},
             {"touched_fraction",
              obs::json::number(append_stats.touched_fraction)},
             {"candidate_pairs",
              obs::json::number(
                  static_cast<double>(append_stats.num_candidate_pairs))},
             {"delta_bytes",
              obs::json::number(static_cast<double>(delta_bytes))},
         })},
    });
    std::ofstream out(json_path);
    GPCLUST_CHECK(out.good(), "cannot open --json file");
    out << obs::json::dump(doc) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
