#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

#include "align/homology_graph.hpp"
#include "core/gpclust.hpp"
#include "seq/alphabet.hpp"

namespace perfbench {

using namespace gpclust;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::record(std::string name, u64 id, double start, double end,
                     std::string thread) {
  if (tracer_ == nullptr) return;
  std::lock_guard lock(mu_);
  spans_.push_back(Span{std::move(name), id, start, end - start,
                        std::move(thread)});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_ok_ = checks_ok_ && ok;
  checks_.push_back(json::object({{"name", json::string(name)},
                                  {"ok", json::boolean(ok)},
                                  {"detail", json::string(detail)}}));
}

bool Result::all_checks_passed() const { return checks_ok_; }

void Result::set_trace(const SpanLog& log, const obs::Tracer& tracer,
                       const std::map<std::string, u64>& baseline) {
  for (const Span& s : log.spans()) {
    spans_.push_back(json::object({
        {"name", json::string(s.name)},
        {"id", json::number(static_cast<double>(s.id))},
        {"start", json::number(s.start)},
        {"dur", json::number(s.duration)},
        {"thread", json::string(s.thread)},
    }));
  }
  // The program's own host spans. Per-query serve spans are recorded on
  // worker threads; the workloads summarize them as latency samples, so
  // only the driving thread's nesting reaches the span tree.
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.domain != obs::Domain::HostMeasured) continue;
    if (e.name == "serve.wait" || e.name == "serve.classify") continue;
    events_.push_back(json::object({
        {"name", json::string(e.name)},
        {"start", json::number(e.start_seconds)},
        {"dur", json::number(e.duration_seconds)},
    }));
  }
  for (const auto& [name, value] : tracer.counters()) {
    const auto base = baseline.find(name);
    const bool high_water = name.find("peak") != std::string::npos;
    const u64 net = base == baseline.end() || high_water
                        ? value
                        : value - base->second;
    counters_[name] = json::number(static_cast<double>(net));
  }
  values_["trace_events"] = static_cast<double>(tracer.num_events() +
                                                log.spans().size());
}

json::Value Result::to_json() const {
  json::Object values;
  for (const auto& [name, v] : values_) values[name] = json::number(v);
  json::Object samples;
  for (const auto& [name, v] : samples_) {
    json::Array items;
    items.reserve(v.size());
    for (double x : v) items.push_back(json::number(x));
    samples[name] = json::array(std::move(items));
  }
  return json::object({
      {"values", json::object(std::move(values))},
      {"samples", json::object(std::move(samples))},
      {"checks", json::array(checks_)},
      {"correct", json::boolean(checks_ok_)},
      {"attempted", json::number(static_cast<double>(attempted_))},
      {"failed", json::number(static_cast<double>(failed_))},
      {"info", json::object(info_)},
      {"spans", json::array(spans_)},
      {"events", json::array(events_)},
      {"counters", json::object(counters_)},
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double nearest_rank(std::vector<double> v, double q) {
  GPCLUST_CHECK(!v.empty(), "percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

seq::SyntheticMetagenome gos_metagenome(u64 seed, std::size_t families,
                                        std::size_t max_members) {
  // Family sizes are the truncated-Pareto quantiles of a stratified
  // sample, in seeded order, so that every seed carries the same amount
  // of work; only the sequences differ. Each family is one
  // generate_metagenome call with its size pinned.
  const seq::FamilyModelConfig shape;
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> sizes;
  for (std::size_t f = 0; f < families; ++f) {
    const double u = (static_cast<double>(f) + 0.5) /
                     static_cast<double>(families);
    const auto members = static_cast<std::size_t>(
        static_cast<double>(shape.min_members) *
        std::pow(1.0 - u, -1.0 / shape.pareto_alpha));
    sizes.push_back(std::clamp(members, shape.min_members, max_members));
  }
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  }

  seq::SyntheticMetagenome out;
  out.num_families = families;
  for (std::size_t f = 0; f < families; ++f) {
    seq::FamilyModelConfig config;
    config.num_families = 1;
    config.min_members = sizes[f];
    config.max_members = sizes[f];
    config.seed = rng.next();
    seq::SyntheticMetagenome family = seq::generate_metagenome(config);
    for (std::size_t m = 0; m < family.sequences.size(); ++m) {
      family.sequences[m].id =
          "fam" + std::to_string(f) + "_orf" + std::to_string(m);
      out.sequences.push_back(std::move(family.sequences[m]));
      out.family.push_back(static_cast<u32>(f));
    }
  }
  // Two background singleton ORFs per family, as `gpclust --demo-orfs`.
  for (std::size_t b = 0; b < 2 * families; ++b) {
    seq::ProteinSequence orf;
    orf.id = "bg_orf" + std::to_string(b);
    orf.residues = random_protein(shape.background_length, rng);
    out.sequences.push_back(std::move(orf));
    out.family.push_back(static_cast<u32>(families + b));
  }
  return out;
}

std::string random_protein(std::size_t length, util::Xoshiro256& rng) {
  std::string s(length, 'A');
  for (char& c : s) c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  return s;
}

std::string mutated_fragment(const std::string& source, double sub_rate,
                             util::Xoshiro256& rng) {
  std::string copy = source;
  for (char& c : copy) {
    if (rng.next_double() < sub_rate) {
      c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
    }
  }
  const double fraction = 0.7 + 0.3 * rng.next_double();
  const std::size_t len = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(copy.size())));
  const std::size_t start = rng.next_below(copy.size() - len + 1);
  return copy.substr(start, len);
}

core::ShinglingParams build_index_params() {
  core::ShinglingParams params;
  params.c1 = 80;
  params.c2 = 40;
  return params;
}

store::FamilyStore build_store(const seq::SequenceSet& sequences,
                               device::DeviceContext& ctx,
                               core::Clustering* clustering) {
  const graph::CsrGraph graph = align::build_homology_graph(sequences);
  core::GpClust engine(ctx, build_index_params());
  const core::Clustering result = engine.cluster(graph);
  if (clustering != nullptr) *clustering = result;
  return store::build_family_store(sequences, result.labels());
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GPCLUST_CHECK(in.good(), "cannot open " + path);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

}  // namespace perfbench
