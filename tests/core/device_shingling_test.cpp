#include "core/device_shingling.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "core/shingle.hpp"
#include "device/primitives.hpp"
#include "graph/generators.hpp"

namespace gpclust::core {
namespace {

/// Canonical multiset view of tuples for order-independent comparison.
std::vector<std::pair<ShingleId, u32>> canon(const ShingleTuples& t) {
  std::vector<std::pair<ShingleId, u32>> out;
  out.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out.emplace_back(t.shingle[i], t.owner[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class DeviceShinglingTest : public ::testing::Test {
 protected:
  device::DeviceContext ctx_{device::DeviceSpec::small_test_device(8 << 20)};
  const HashFamily family_{20, 4, 1};
};

TEST_F(DeviceShinglingTest, MatchesSerialExtraction) {
  const auto g = graph::generate_erdos_renyi(200, 0.05, 3);
  const auto serial =
      extract_shingles_serial(g.offsets(), g.adjacency(), family_, 2);
  auto device_tuples = extract_shingles_device(ctx_, g.offsets(),
                                               g.adjacency(), family_, 2, {});
  EXPECT_EQ(canon(serial), canon(device_tuples));
}

class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, TupleSetInvariantUnderBatching) {
  // DESIGN.md invariant 4 at the pass level, across batch sizes that force
  // zero, some, and per-element splits.
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  const HashFamily family(15, 9, 1);
  const auto g = graph::generate_erdos_renyi(100, 0.15, 8);
  const auto serial =
      extract_shingles_serial(g.offsets(), g.adjacency(), family, 2);

  DevicePassOptions options;
  options.max_batch_elements = GetParam();
  DevicePassStats stats;
  auto tuples = extract_shingles_device(ctx, g.offsets(), g.adjacency(),
                                        family, 2, options, nullptr,
                                        "cpu", &stats);
  EXPECT_EQ(canon(serial), canon(tuples));
  EXPECT_GT(stats.num_batches, 0u);
  EXPECT_EQ(stats.num_tuples, serial.size());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1000, 1u << 20));

TEST_F(DeviceShinglingTest, AsyncTuplesIdenticalToSync) {
  const auto g = graph::generate_erdos_renyi(150, 0.1, 6);
  DevicePassOptions sync_opt, async_opt;
  async_opt.num_streams = 2;  // single-lane transfer overlap
  auto sync_tuples = extract_shingles_device(ctx_, g.offsets(), g.adjacency(),
                                             family_, 2, sync_opt);
  auto async_tuples = extract_shingles_device(ctx_, g.offsets(), g.adjacency(),
                                              family_, 2, async_opt);
  EXPECT_EQ(canon(sync_tuples), canon(async_tuples));
}

TEST_F(DeviceShinglingTest, StatsReportSplits) {
  const auto g = graph::generate_erdos_renyi(60, 0.5, 2);  // high degree
  DevicePassOptions options;
  options.max_batch_elements = 10;  // far below max degree
  DevicePassStats stats;
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2,
                          options, nullptr, "cpu", &stats);
  EXPECT_GT(stats.num_split_lists, 0u);
  EXPECT_GT(stats.num_batches, 1u);
}

TEST_F(DeviceShinglingTest, DefaultBatchSizeRespectsDeviceMemory) {
  const std::size_t batch = default_batch_elements(ctx_, 2);
  EXPECT_GE(batch, 1u);
  // Must leave room: the per-batch allocations for `batch` elements cannot
  // exceed the arena.
  EXPECT_LT(batch * 12, ctx_.arena().capacity());
}

TEST_F(DeviceShinglingTest, CpuMetricAccumulates) {
  const auto g = graph::generate_erdos_renyi(100, 0.1, 1);
  util::MetricsRegistry reg;
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2, {},
                          &reg, "pass.cpu");
  EXPECT_GT(reg.get("pass.cpu"), 0.0);
}

TEST_F(DeviceShinglingTest, EmptyGraphYieldsNoTuples) {
  const std::vector<u64> offsets = {0};
  auto tuples = extract_shingles_device(ctx_, offsets, {}, family_, 2, {});
  EXPECT_EQ(tuples.size(), 0u);
}

TEST_F(DeviceShinglingTest, ChargesDeviceTime) {
  const auto g = graph::generate_erdos_renyi(100, 0.1, 2);
  ctx_.reset_timeline();
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2, {});
  EXPECT_GT(ctx_.gpu_seconds(), 0.0);
  EXPECT_GT(ctx_.h2d_seconds(), 0.0);
  EXPECT_GT(ctx_.d2h_seconds(), 0.0);
}

/// The device pass's tuple order: batch by batch, trial by trial, one
/// tuple per segment that ends its list, in segment order. A split list's
/// shingle is its whole list's, so the oracle hashes whole lists.
ShingleTuples ordered_reference(std::span<const u64> offsets,
                                std::span<const u32> members,
                                const HashFamily& family, u32 s,
                                std::size_t max_batch_elements) {
  ShingleTuples out;
  std::vector<u64> minima(s);
  for (const Batch& batch :
       plan_batches(offsets, s, max_batch_elements).batches) {
    for (u32 j = 0; j < family.size(); ++j) {
      for (std::size_t seg = 0; seg < batch.num_segments(); ++seg) {
        if (!batch.seg_ends_list[seg]) continue;
        const u32 id = batch.seg_list_ids[seg];
        const u64 len = offsets[id + 1] - offsets[id];
        min_s_images(members.subspan(offsets[id], len), family[j], s, minima);
        out.append(hash_shingle(j, minima), id);
      }
    }
  }
  return out;
}

TEST(DeviceShinglingConsume, SplitPiecesAtBothBatchEndsKeepOrder) {
  // One small batch size (kernel and consume inline) and one above the
  // inline cutoff (both on a 4-thread pool); batch 1 starts and ends
  // inside a list.
  const HashFamily family(6, 11, 1);
  const auto g = graph::generate_erdos_renyi(1800, 0.06, 21);
  ASSERT_GT(g.num_adjacency_entries(), 2 * (device::kInlineKernelElements + 1));
  util::ThreadPool pool(4);
  for (std::size_t max_batch : {std::size_t{29},
                                device::kInlineKernelElements + 1}) {
    const BatchPlan plan = plan_batches(g.offsets(), 2, max_batch);
    ASSERT_GT(plan.batches.size(), 2u);
    const Batch& mid = plan.batches[1];
    ASSERT_FALSE(mid.seg_starts_list.front()) << max_batch;
    ASSERT_FALSE(mid.seg_ends_list.back()) << max_batch;

    device::DeviceContext ctx(device::DeviceSpec::small_test_device(64 << 20),
                              &pool);
    DevicePassOptions options;
    options.max_batch_elements = max_batch;
    DevicePassStats stats;
    const ShingleTuples tuples =
        extract_shingles_device(ctx, g.offsets(), g.adjacency(), family, 2,
                                options, nullptr, "cpu", &stats);
    const ShingleTuples expected = ordered_reference(
        g.offsets(), g.adjacency(), family, 2, max_batch);
    EXPECT_EQ(tuples.shingle, expected.shingle) << max_batch;
    EXPECT_EQ(tuples.owner, expected.owner) << max_batch;
    EXPECT_GT(stats.num_split_lists, 0u);
  }
}

TEST(DeviceShinglingConsume, SplitBatchesOnBothSidesOfTheCutoffMatchSerial) {
  const auto g = graph::generate_erdos_renyi(1800, 0.06, 22);
  ShinglingParams params;
  params.c1 = 8;
  params.c2 = 4;
  auto serial = SerialShingler(params).cluster(g);
  serial.normalize();
  for (std::size_t max_batch : {std::size_t{29},
                                device::kInlineKernelElements + 1}) {
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(64 << 20));
    GpClustOptions options;
    options.max_batch_elements = max_batch;
    GpClustReport report;
    auto result = GpClust(ctx, params, options).cluster(g, &report);
    result.normalize();
    EXPECT_EQ(result.digest(), serial.digest()) << max_batch;
    EXPECT_GT(report.pass1.num_split_lists, 0u) << max_batch;
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

}  // namespace
}  // namespace gpclust::core
