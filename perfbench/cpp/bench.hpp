#pragma once
// Shared plumbing of the perfbench workloads: options, the benchmark-owned
// span log, the raw result document run.py post-processes, and the
// generated inputs (GOS-like metagenomes, mutated query fragments).
//
// Every workload calls the product only through its public entry points
// (seq::read_fasta, align::build_homology_graph, core::GpClust::cluster,
// the store snapshot/delta functions, serve::QueryService and
// ingest::IngestSession) and wraps each call in a span it owns. Spans are
// kept in memory and written out once, with the result.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/params.hpp"
#include "device/device_context.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "seq/family_model.hpp"
#include "seq/sequence.hpp"
#include "store/snapshot.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace perfbench {

using gpclust::u32;
using gpclust::u64;
namespace json = gpclust::obs::json;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files of this run (inputs, snapshots)
};

/// Seconds on the process-wide steady clock.
double now_s();

/// One span the benchmark owns. Spans of one build, batch or query share
/// `id`; `thread` separates the workload's driving thread ("main") from
/// the query generator ("load"), so run.py nests spans by interval
/// containment per thread only.
struct Span {
  std::string name;
  u64 id = 0;
  double start = 0.0;  ///< on the attached Tracer's clock
  double duration = 0.0;
  std::string thread;
};

/// In-memory span log. Disabled (every record a no-op) without a tracer;
/// with one, timestamps use the tracer's clock so benchmark spans and the
/// program's own spans share one time axis.
class SpanLog {
 public:
  explicit SpanLog(gpclust::obs::Tracer* tracer) : tracer_(tracer) {}
  double now() const { return tracer_ != nullptr ? tracer_->host_now() : 0.0; }
  void record(std::string name, u64 id, double start, double end,
              std::string thread = "main");
  std::vector<Span> spans() const;

 private:
  gpclust::obs::Tracer* tracer_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, u64 id = 0)
      : log_(log), name_(std::move(name)), id_(id), start_(log.now()) {}
  ~ScopedSpan() { log_.record(std::move(name_), id_, start_, log_.now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string name_;
  u64 id_;
  double start_;
};

/// The raw result of one workload run: scalar values, sample arrays,
/// correctness checks and (traced runs) spans. run.py derives every
/// reported metric from it.
class Result {
 public:
  void value(const std::string& name, double v) { values_[name] = v; }
  void samples(const std::string& name, std::vector<double> v) {
    samples_[name] = std::move(v);
  }
  /// Records a correctness check; a failed one fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void attempt(u64 attempted, u64 failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void info(const std::string& key, json::Value v) { info_[key] = std::move(v); }
  /// Attaches the span log, the program's host spans and its counters.
  /// Counters are reported net of `baseline` (a tracer.counters() copy
  /// taken after set-up), except high-water marks, which are kept as is.
  void set_trace(const SpanLog& log, const gpclust::obs::Tracer& tracer,
                 const std::map<std::string, u64>& baseline = {});

  bool all_checks_passed() const;
  json::Value to_json() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  json::Array checks_;
  bool checks_ok_ = true;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  json::Object info_;
  json::Array spans_;
  json::Array events_;
  json::Object counters_;
};

/// Peak resident set size of this process (getrusage ru_maxrss), MB.
double peak_rss_mb();

/// Nearest-rank percentile, q in (0, 1]; the ladder's online pass/fail
/// rule (run.py reports the tails it prints with the same rule).
double nearest_rank(std::vector<double> v, double q);

/// A GOS-like metagenome in the `gpclust --demo-orfs` shape: Pareto family
/// sizes up to `max_members` (stratified, so the total work does not
/// depend on the seed), two background singleton ORFs per family.
gpclust::seq::SyntheticMetagenome gos_metagenome(u64 seed,
                                                 std::size_t families,
                                                 std::size_t max_members);

/// A query fragment of `source`: point substitutions at `sub_rate`, then a
/// contiguous window covering 70-100% of the result.
std::string mutated_fragment(const std::string& source, double sub_rate,
                             gpclust::util::Xoshiro256& rng);
/// A random protein of `length` standard residues.
std::string random_protein(std::size_t length, gpclust::util::Xoshiro256& rng);

/// The shingling parameters `gpclust-build-index` uses by default.
gpclust::core::ShinglingParams build_index_params();

/// The untimed build path behind the serve and append workloads' inputs:
/// homology graph, GpClust clustering and family store over `sequences`.
gpclust::store::FamilyStore build_store(
    const gpclust::seq::SequenceSet& sequences,
    gpclust::device::DeviceContext& ctx,
    gpclust::core::Clustering* clustering = nullptr);

/// Bytes of a file (throws on I/O failure).
std::vector<char> read_file(const std::string& path);

void run_build(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);
void run_append(const Options& options, Result& result);

}  // namespace perfbench
