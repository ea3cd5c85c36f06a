// Workload `build`: a cold FASTA -> snapshot run on a generated GOS-like
// metagenome, repeated for the measured duration. Each repetition reads
// the FASTA from disk, builds the homology graph, clusters it with the
// GpClust device engine (gpclust-build-index defaults), builds the family
// store and writes the snapshot.
//
// Traced runs alternate untraced and traced repetitions: spans and counters
// come from the traced ones, and the two wall-time medians give the
// tracing overhead.

#include <optional>

#include "align/homology_graph.hpp"
#include "bench.hpp"
#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "device/device_context.hpp"
#include "eval/partition_metrics.hpp"
#include "seq/fasta.hpp"
#include "store/snapshot.hpp"

namespace perfbench {

using namespace gpclust;

namespace {

/// Families of the generated metagenome: ~21,000 ORFs, sized so that the
/// seed, verify, aggregate2 and report stages each take >= 100 ms.
constexpr std::size_t kFamilies = 2400;
constexpr std::size_t kMaxMembers = 80;
constexpr int kSetupRepeats = 21;
constexpr int kSetupBatch = 200;

}  // namespace

void run_build(const Options& options, Result& result) {
  const seq::SyntheticMetagenome metagenome =
      gos_metagenome(options.seed, kFamilies, kMaxMembers);
  const std::string fasta_path = options.work_dir + "/input.faa";
  const std::string snapshot_path = options.work_dir + "/families.gpfi";
  seq::write_fasta(metagenome.sequences, fasta_path);
  const std::size_t num_orfs = metagenome.sequences.size();

  // --- Set-up: the device context the engine runs on --------------------
  // Each sample is the mean of kSetupBatch construct/destroy cycles (one
  // takes well under a microsecond), all taken on the fresh heap before
  // the first build.
  std::vector<double> setup_s;
  std::optional<device::DeviceContext> ctx;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    for (int k = 0; k < kSetupBatch; ++k) {
      ctx.reset();
      ctx.emplace(device::DeviceSpec::tesla_k20());
    }
    setup_s.push_back((now_s() - t0) / kSetupBatch);
  }
  result.samples("setup_s", setup_s);

  obs::Tracer tracer;
  SpanLog traced_log(&tracer);
  SpanLog untraced_log(nullptr);

  const core::ShinglingParams params = build_index_params();
  const store::StoreBuildConfig store_config;
  align::HomologyGraphConfig graph_config;
  core::GpClustOptions cluster_options;

  std::vector<double> walls, traced_walls;
  std::vector<char> first_bytes;
  u64 first_digest = 0;
  u64 failed = 0;
  bool arena_empty = true, bytes_repeat = true, digest_repeat = true;
  bool fault_free = true;
  graph::CsrGraph graph;
  core::Clustering clustering;
  core::GpClustReport report;
  align::HomologyGraphStats graph_stats;
  std::size_t residues = 0;

  // At least two builds (the bytes must repeat), and in traced runs two
  // of each kind.
  const u64 min_reps = options.trace ? 4 : 2;
  const double deadline = now_s() + options.seconds;
  u64 rep = 0;
  for (; rep < min_reps || now_s() < deadline; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    SpanLog& log = traced ? traced_log : untraced_log;
    graph_config.tracer = traced ? &tracer : nullptr;
    cluster_options.tracer = graph_config.tracer;

    const double t0 = now_s();
    {
      ScopedSpan rep_span(log, "bench.build", rep);
      seq::SequenceSet sequences;
      {
        ScopedSpan span(log, "seq.read_fasta", rep);
        sequences = seq::read_fasta(fasta_path);
      }
      {
        ScopedSpan span(log, "align.build_homology_graph", rep);
        graph_stats = align::HomologyGraphStats{};
        graph = align::build_homology_graph(sequences, graph_config,
                                            &graph_stats);
      }
      {
        ScopedSpan span(log, "core.cluster", rep);
        core::GpClust engine(*ctx, params, cluster_options);
        clustering = engine.cluster(graph, &report);
      }
      store::FamilyStore store;
      {
        ScopedSpan span(log, "store.build_family_store", rep);
        store = store::build_family_store(sequences, clustering.labels(),
                                          store_config);
      }
      {
        ScopedSpan span(log, "store.write_snapshot", rep);
        store::write_snapshot(store, snapshot_path);
      }
      residues = store.residues.size();
    }
    (traced ? traced_walls : walls).push_back(now_s() - t0);

    // Per-repetition checks, outside the timed region.
    const bool empty = ctx->arena().used() == 0;
    const std::vector<char> bytes = read_file(snapshot_path);
    const u64 digest = clustering.digest();
    if (rep == 0) {
      first_bytes = bytes;
      first_digest = digest;
    }
    const bool faults = report.pass1.num_retries + report.pass2.num_retries +
                            report.pass1.num_batch_replans +
                            report.pass2.num_batch_replans +
                            report.pass1.num_pipeline_drains +
                            report.pass2.num_pipeline_drains ==
                        0 &&
                        !report.pass1.cpu_fallback && !report.pass2.cpu_fallback;
    arena_empty = arena_empty && empty;
    bytes_repeat = bytes_repeat && bytes == first_bytes;
    digest_repeat = digest_repeat && digest == first_digest;
    fault_free = fault_free && faults;
    if (!empty || bytes != first_bytes || digest != first_digest || !faults) {
      ++failed;
    }
  }
  result.value("peak_rss_mb", peak_rss_mb());

  // --- Correctness, outside the timed region -----------------------------
  const u64 serial_digest = core::SerialShingler(params).cluster(graph).digest();
  const bool serial_ok = serial_digest == clustering.digest();
  if (!serial_ok) ++failed;
  result.check("partition digest equals SerialShingler", serial_ok);
  result.check("snapshot bytes repeat across repetitions", bytes_repeat);
  result.check("partition digest repeats across repetitions", digest_repeat);
  result.check("device arena empty after every run", arena_empty);
  result.check("no fault counters fired", fault_free);
  result.attempt(rep, failed);

  const eval::PairConfusion quality =
      eval::compare_partitions(clustering.labels(), metagenome.family);
  result.value("family_ppv", quality.ppv());
  result.value("family_se", quality.sensitivity());

  result.samples("unit_wall_s", walls);
  result.samples("traced_wall_s", traced_walls);
  result.value("unit_orfs", static_cast<double>(num_orfs));
  result.value("units_traced", static_cast<double>(traced_walls.size()));

  // Per-layer values of one build (the last one; every build of a run does
  // identical work, so counts repeat exactly).
  result.value("seq.residues", static_cast<double>(residues));
  result.value("align.candidate_pairs",
               static_cast<double>(graph_stats.num_candidate_pairs));
  result.value("align.seed_peak_bytes",
               static_cast<double>(graph_stats.seed_peak_candidate_bytes));
  result.value("align.surviving_pairs",
               static_cast<double>(graph_stats.num_surviving_pairs));
  result.value("align.edges", static_cast<double>(graph_stats.num_edges));
  result.value("align.simd_runs_8bit",
               static_cast<double>(graph_stats.simd.runs_8bit));
  result.value("align.simd_rescues_16bit",
               static_cast<double>(graph_stats.simd.rescues_16bit));
  result.value("align.scalar_fallbacks",
               static_cast<double>(graph_stats.simd.scalar_fallbacks));
  result.value("core.split_lists",
               static_cast<double>(report.pass1.num_split_lists +
                                   report.pass2.num_split_lists));
  result.value("device.makespan_modeled_s", report.device_makespan);
  result.value("device.kernel_exposed_s", report.gpu_exposed_seconds);
  result.value("device.h2d_exposed_s", report.h2d_exposed_seconds);
  result.value("device.d2h_exposed_s", report.d2h_exposed_seconds);
  result.value("store.snapshot_bytes", static_cast<double>(first_bytes.size()));
  if (options.trace) result.set_trace(traced_log, tracer);
}

}  // namespace perfbench
