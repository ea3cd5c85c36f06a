// Workload `append`: writes beside reads. An IngestSession resumes from a
// base snapshot (device engine, as `gpclust-build-index --append` runs it),
// then small FASTA batches arrive, each mixing new members of existing
// families with novel ORFs. Every batch goes ingest_with_delta ->
// write_delta -> QueryService::reload_with_delta while a low fixed-rate
// open-loop query stream hits the reloading service.
//
// Threads: the batch loop, one query generator and two service workers.
// Traced runs also feed every batch to an untraced shadow session resumed
// from the same base, which gives the tracing overhead batch by batch.

#include <filesystem>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "eval/partition_metrics.hpp"
#include "ingest/ingest_session.hpp"
#include "load.hpp"
#include "seq/fasta.hpp"
#include "serve/family_index.hpp"
#include "store/delta.hpp"

namespace perfbench {

using namespace gpclust;

namespace {

constexpr std::size_t kFamilies = 700;
constexpr std::size_t kMaxMembers = 80;
constexpr std::size_t kBaseOrfs = 1500;
constexpr std::size_t kBatchOrfs = 30;
constexpr std::size_t kWorkers = 2;
constexpr int kSetupRepeats = 5;
constexpr double kQueryRate = 200.0;

struct Stream {
  seq::SequenceSet base;
  std::vector<u32> base_family;
  std::vector<std::string> batch_paths;
  std::vector<seq::SequenceSet> batches;
  std::vector<std::vector<u32>> batch_family;
};

/// Shuffles a generated metagenome, keeps a prefix as the base and cuts
/// the rest into batch FASTA files.
Stream make_stream(const Options& options) {
  const seq::SyntheticMetagenome metagenome =
      gos_metagenome(options.seed, kFamilies, kMaxMembers);
  std::vector<std::size_t> order(metagenome.sequences.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Xoshiro256 rng(options.seed ^ 0xa99e);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  Stream stream;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    if (k < kBaseOrfs) {
      stream.base.push_back(metagenome.sequences[i]);
      stream.base_family.push_back(metagenome.family[i]);
      continue;
    }
    if ((k - kBaseOrfs) % kBatchOrfs == 0) {
      stream.batches.emplace_back();
      stream.batch_family.emplace_back();
    }
    stream.batches.back().push_back(metagenome.sequences[i]);
    stream.batch_family.back().push_back(metagenome.family[i]);
  }
  for (std::size_t b = 0; b < stream.batches.size(); ++b) {
    stream.batch_paths.push_back(options.work_dir + "/batch" +
                                 std::to_string(b) + ".faa");
    seq::write_fasta(stream.batches[b], stream.batch_paths.back());
  }
  return stream;
}

ingest::IngestConfig ingest_config(const store::FamilyStore& base,
                                   device::DeviceContext& ctx,
                                   obs::Tracer* tracer) {
  ingest::IngestConfig config;
  config.shingling = build_index_params();
  // k and the signature parameters come from the base, as the CLI does.
  config.store.k = static_cast<std::size_t>(base.kmer_k);
  config.store.sig_hashes = static_cast<std::size_t>(base.sig_num_hashes);
  config.store.sig_seed = base.sig_seed;
  config.engine = ingest::ClusterEngine::Device;
  config.device = &ctx;
  config.tracer = tracer;
  return config;
}

}  // namespace

void run_append(const Options& options, Result& result) {
  const Stream stream = make_stream(options);
  const std::string base_path = options.work_dir + "/append_base.gpfi";
  const std::string shadow_path = options.work_dir + "/append_shadow.gpfi";
  device::DeviceContext ctx(device::DeviceSpec::tesla_k20());
  store::write_snapshot(build_store(stream.base, ctx), base_path);
  if (options.trace) store::write_snapshot(store::load_snapshot(base_path),
                                           shadow_path);

  obs::Tracer tracer;
  SpanLog log(options.trace ? &tracer : nullptr);
  obs::Tracer* trace = options.trace ? &tracer : nullptr;
  serve::ServiceConfig service_config;
  service_config.num_workers = kWorkers;
  service_config.queue_capacity = 1 << 16;
  service_config.tracer = trace;

  // --- Set-up: load + resume + service, repeated; the last one serves ----
  std::vector<double> setup_s;
  store::FamilyStore base;
  std::unique_ptr<ingest::IngestSession> session;
  std::unique_ptr<serve::QueryService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    session.reset();
    const double t0 = now_s();
    {
      ScopedSpan span(log, "store.load_snapshot", i);
      base = store::load_snapshot(base_path);
    }
    {
      ScopedSpan span(log, "ingest.resume", i);
      session = std::make_unique<ingest::IngestSession>(
          ingest_config(base, ctx, trace), base);
    }
    {
      ScopedSpan span(log, "serve.construct", i);
      service = std::make_unique<serve::QueryService>(base, service_config);
    }
    setup_s.push_back(now_s() - t0);
  }
  result.samples("setup_s", setup_s);
  // Resuming replays the cascade; per-batch counters start after it.
  const std::map<std::string, u64> setup_counters = tracer.counters();
  std::unique_ptr<ingest::IngestSession> shadow;
  if (options.trace) {
    shadow = std::make_unique<ingest::IngestSession>(
        ingest_config(base, ctx, nullptr), base);
  }

  // Queries: fragments of base members of planted families.
  std::vector<std::string> sources;
  std::vector<u32> source_family;
  for (std::size_t i = 0; i < stream.base.size(); ++i) {
    if (stream.base_family[i] < kFamilies) {
      sources.push_back(stream.base[i].residues);
      source_family.push_back(stream.base_family[i]);
    }
  }
  const QueryPool pool =
      make_query_pool(sources, source_family, 1, options.seed ^ 0x9e7);

  // --- Timed: the batch stream beside the query stream -------------------
  std::vector<SentQuery> sent;
  util::Xoshiro256 rng(options.seed ^ 0x10ad);
  const double query_start = now_s() + 0.01;
  // Declared after everything it uses: on any way out of this scope it is
  // stopped and joined first.
  std::jthread generator([&](std::stop_token stop) {
    sent = open_loop(*service, pool, rng, kQueryRate, query_start,
                     std::numeric_limits<double>::infinity(), log, 0, stop);
  });

  std::vector<double> fresh_s, traced_ingest_s, shadow_ingest_s;
  // Generation g + 1 replaced g at some time after reload_start[g].
  std::vector<double> reload_start;
  ingest::IngestBatchStats totals;
  double touched = 0.0, makespan = 0.0, kernel = 0.0, h2d = 0.0, d2h = 0.0;
  std::size_t orfs = 0, residues = 0;
  bool arena_empty = true;
  u64 batch = 0;
  const double deadline = now_s() + options.seconds;
  for (; batch < stream.batches.size() && (batch < 2 || now_s() < deadline);
       ++batch) {
    const u64 link = batch + 1;
    ingest::IngestBatchStats stats;
    const double hand_off = now_s();
    double ingest_wall = 0.0;
    {
      ScopedSpan batch_span(log, "bench.batch", link);
      seq::SequenceSet sequences;
      {
        ScopedSpan span(log, "seq.read_fasta", link);
        sequences = seq::read_fasta(stream.batch_paths[batch]);
      }
      const double i0 = now_s();
      store::SnapshotDelta delta;
      {
        ScopedSpan span(log, "ingest.ingest_with_delta", link);
        delta = session->ingest_with_delta(sequences, link, &stats);
      }
      {
        ScopedSpan span(log, "store.write_delta", link);
        store::write_delta(delta, store::delta_chain_path(base_path, link));
      }
      ingest_wall = now_s() - i0;
      reload_start.push_back(now_s());
      {
        ScopedSpan span(log, "serve.reload_with_delta", link);
        service->reload_with_delta(delta);
      }
    }
    fresh_s.push_back(now_s() - hand_off);
    orfs += stream.batches[batch].size();
    for (const auto& orf : stream.batches[batch]) residues += orf.length();
    arena_empty = arena_empty && ctx.arena().used() == 0;
    makespan += ctx.makespan();
    kernel += ctx.gpu_exposed_seconds();
    h2d += ctx.h2d_exposed_seconds();
    d2h += ctx.d2h_exposed_seconds();
    totals.num_candidate_pairs += stats.num_candidate_pairs;
    totals.seed_host_s += stats.seed_host_s;
    totals.verify_host_s += stats.verify_host_s;
    totals.recluster_host_s += stats.recluster_host_s;
    totals.verify.num_surviving_pairs += stats.verify.num_surviving_pairs;
    totals.verify.num_edges += stats.num_accepted_edges;
    totals.verify.simd += stats.verify.simd;
    touched += stats.touched_fraction;

    if (shadow != nullptr) {
      const seq::SequenceSet sequences = seq::read_fasta(stream.batch_paths[batch]);
      const double s0 = now_s();
      const store::SnapshotDelta delta = shadow->ingest_with_delta(sequences, link);
      store::write_delta(delta, store::delta_chain_path(shadow_path, link));
      shadow_ingest_s.push_back(now_s() - s0);
      traced_ingest_s.push_back(ingest_wall);
    }
  }
  generator.request_stop();
  generator.join();
  result.value("peak_rss_mb", peak_rss_mb());

  // --- Correctness, outside the timed region -----------------------------
  // A query submitted under generation g is answered by some generation
  // from g up to the last one whose reload began before it completed.
  std::vector<u32> lo(sent.size()), hi(sent.size());
  const std::vector<serve::QueryOutcome> outcomes = wait_all(sent);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const double done = sent[i].sent_at + outcomes[i].latency_seconds + 1e-3;
    u32 g = 0;
    while (g < reload_start.size() && reload_start[g] < done) ++g;
    lo[i] = static_cast<u32>(sent[i].generation);
    hi[i] = g;
  }
  // One walk down the written chain: base, then each delta link read back
  // from disk and applied — the compaction gpclust-build-index --compact
  // performs — judging every query against the generations it may have
  // met on the way.
  std::vector<char> matched(sent.size(), 0);
  store::FamilyStore compacted = base;
  double delta_bytes = 0.0;
  for (u32 g = 0; g <= batch; ++g) {
    if (g > 0) {
      const std::string path = store::delta_chain_path(base_path, g);
      delta_bytes += static_cast<double>(std::filesystem::file_size(path));
      compacted = store::apply_snapshot_delta(compacted, store::load_delta(path));
    }
    const serve::FamilyIndex index(compacted);
    serve::ClassifyScratch scratch;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (matched[i] || g < lo[i] || g > hi[i] ||
          outcomes[i].rejected != serve::RejectReason::None) {
        continue;
      }
      matched[i] = index.classify(pool.queries[sent[i].query],
                                  service_config.classify, scratch) ==
                   outcomes[i].result;
    }
  }
  const LoopOutcome queries = collect(
      sent, outcomes, log, [&](const SentQuery& q, const serve::ClassifyResult&) {
        return matched[q.id] != 0;
      });

  seq::SequenceSet all = stream.base;
  std::vector<u32> planted = stream.base_family;
  for (u64 b = 0; b < batch; ++b) {
    all.insert(all.end(), stream.batches[b].begin(), stream.batches[b].end());
    planted.insert(planted.end(), stream.batch_family[b].begin(),
                   stream.batch_family[b].end());
  }
  core::Clustering scratch_clustering;
  const std::vector<char> scratch_bytes =
      store::serialize_snapshot(build_store(all, ctx, &scratch_clustering));
  const bool digest_ok =
      session->partition_digest() == scratch_clustering.digest();
  const bool bytes_ok = store::serialize_snapshot(compacted) == scratch_bytes;
  const bool generation_ok = service->generation() == batch;
  result.check("session digest equals a from-scratch build", digest_ok);
  result.check("compacted snapshot bytes equal a from-scratch build",
               bytes_ok);
  result.check("service serves the last batch", generation_ok);
  result.check("device arena empty after every batch",
               arena_empty && ctx.arena().used() == 0);
  result.check("every served answer equals a direct classify of its "
               "generation",
               queries.wrong == 0, std::to_string(queries.wrong) + " wrong");
  result.check("no query rejected or expired", queries.rejected == 0,
               std::to_string(queries.rejected) + " rejected");
  const u64 batch_failures =
      (digest_ok && bytes_ok && generation_ok && arena_empty) ? 0 : batch;
  result.attempt(batch + queries.attempted,
                 batch_failures + queries.rejected + queries.wrong);

  const eval::PairConfusion quality =
      eval::compare_partitions(session->clustering().labels(), planted);
  result.value("family_ppv", quality.ppv());
  result.value("family_se", quality.sensitivity());

  result.samples("fresh_s", fresh_s);
  result.samples("latency_ms", queries.latency_ms);
  result.samples("lateness_ms", queries.lateness_ms);
  result.value("unit_orfs_total", static_cast<double>(orfs));
  result.value("units_traced", static_cast<double>(batch));
  const double n = static_cast<double>(std::max<u64>(1, batch));
  result.value("device.makespan_modeled_s", makespan / n);
  result.value("device.kernel_exposed_s", kernel / n);
  result.value("device.h2d_exposed_s", h2d / n);
  result.value("device.d2h_exposed_s", d2h / n);
  result.value("seq.residues", static_cast<double>(residues) / n);
  result.value("ingest.candidate_pairs", totals.num_candidate_pairs / n);
  result.value("ingest.touched_fraction", touched / n);
  result.value("ingest.stats_seed_s", totals.seed_host_s / n);
  result.value("ingest.stats_verify_s", totals.verify_host_s / n);
  result.value("ingest.stats_recluster_s", totals.recluster_host_s / n);
  result.value("align.candidate_pairs", totals.num_candidate_pairs / n);
  result.value("align.surviving_pairs", totals.verify.num_surviving_pairs / n);
  result.value("align.edges", totals.verify.num_edges / n);
  result.value("align.simd_runs_8bit", totals.verify.simd.runs_8bit / n);
  result.value("align.simd_rescues_16bit",
               totals.verify.simd.rescues_16bit / n);
  result.value("align.scalar_fallbacks", totals.verify.simd.scalar_fallbacks / n);
  result.value("store.delta_bytes", delta_bytes / n);
  result.value("store.snapshot_bytes",
               static_cast<double>(read_file(base_path).size()));
  if (options.trace) {
    add_serve_span_samples(tracer, tracer.num_events(), result);
    const serve::ServiceStats stats = service->stats();
    result.value("serve.profile_hit_ratio",
                 static_cast<double>(stats.profile_hits) /
                     static_cast<double>(std::max<u64>(
                         1, stats.profile_hits + stats.profile_builds)));
    result.samples("unit_wall_s", shadow_ingest_s);
    result.samples("traced_wall_s", traced_ingest_s);
    result.set_trace(log, tracer, setup_counters);
  }
  double candidates = 0.0;
  for (double c : queries.candidates) candidates += c;
  result.value("serve.candidates_per_query",
               candidates / std::max<double>(1.0, queries.candidates.size()));
  result.value("serve.rejected", static_cast<double>(queries.rejected));
}

}  // namespace perfbench
