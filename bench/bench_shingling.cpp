// Microbenchmarks (google-benchmark) of whole shingling passes: serial
// extraction vs the simulated-device pipeline, and the CPU-side tuple
// aggregation. These are the components whose ratio determines the paper's
// Table I breakdown.

#include <benchmark/benchmark.h>

#include "core/device_shingling.hpp"
#include "core/serial_pclust.hpp"
#include "core/shingle.hpp"
#include "graph/generators.hpp"

namespace gpclust {
namespace {

const graph::CsrGraph& bench_graph() {
  static const graph::CsrGraph g = graph::generate_erdos_renyi(4000, 0.01, 5);
  return g;
}

void BM_SerialShinglingPass(benchmark::State& state) {
  const auto& g = bench_graph();
  const core::HashFamily fam(static_cast<u32>(state.range(0)), 3, 1);
  for (auto _ : state) {
    auto tuples = core::extract_shingles_serial(g.offsets(), g.adjacency(),
                                                fam, 2);
    benchmark::DoNotOptimize(tuples.size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(g.num_adjacency_entries()) *
                          state.range(0));
}
BENCHMARK(BM_SerialShinglingPass)->Arg(10)->Arg(50)->Arg(200);

void BM_DeviceShinglingPass(benchmark::State& state) {
  const auto& g = bench_graph();
  const core::HashFamily fam(static_cast<u32>(state.range(0)), 3, 1);
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(64 << 20));
  for (auto _ : state) {
    auto tuples = core::extract_shingles_device(ctx, g.offsets(),
                                                g.adjacency(), fam, 2, {});
    benchmark::DoNotOptimize(tuples.size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(g.num_adjacency_entries()) *
                          state.range(0));
}
BENCHMARK(BM_DeviceShinglingPass)->Arg(10)->Arg(50);

void BM_AggregateTuples(benchmark::State& state) {
  const auto& g = bench_graph();
  const core::HashFamily fam(50, 3, 1);
  const auto tuples_proto =
      core::extract_shingles_serial(g.offsets(), g.adjacency(), fam, 2);
  for (auto _ : state) {
    state.PauseTiming();
    auto tuples = tuples_proto;  // aggregation consumes its input
    state.ResumeTiming();
    auto graph = core::aggregate_tuples(std::move(tuples));
    benchmark::DoNotOptimize(graph.num_left());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(tuples_proto.size()));
}
BENCHMARK(BM_AggregateTuples);

void BM_EndToEndSerialCluster(benchmark::State& state) {
  const auto& g = bench_graph();
  core::ShinglingParams params;
  params.c1 = 20;
  params.c2 = 10;
  const core::SerialShingler shingler(params);
  for (auto _ : state) {
    auto c = shingler.cluster(g);
    benchmark::DoNotOptimize(c.num_clusters());
  }
}
BENCHMARK(BM_EndToEndSerialCluster);

}  // namespace
}  // namespace gpclust

BENCHMARK_MAIN();
