#include "device/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace gpclust::device {
namespace {

class PrimitivesTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{DeviceSpec::small_test_device(8 << 20)};

  template <typename T>
  DeviceVector<T> upload(const std::vector<T>& host) {
    DeviceVector<T> dev(ctx_, host.size());
    copy_to_device<T>(dev, host);
    return dev;
  }

  template <typename T>
  std::vector<T> download(const DeviceVector<T>& dev) {
    std::vector<T> host(dev.size());
    copy_to_host<T>(host, dev);
    return host;
  }
};

TEST_F(PrimitivesTest, TransformAppliesFunctor) {
  auto in = upload<u32>({1, 2, 3, 4});
  DeviceVector<u32> out(ctx_, 4);
  transform_weighted(in, out, [](u32 x) { return x * x; }, 4);
  EXPECT_EQ(download(out), (std::vector<u32>{1, 4, 9, 16}));
}

TEST_F(PrimitivesTest, TransformChargesKernelTime) {
  auto in = upload<u32>(std::vector<u32>(1000, 1));
  DeviceVector<u32> out(ctx_, 1000);
  const double before = ctx_.gpu_seconds();
  transform_weighted(in, out, [](u32 x) { return x; }, 1000);
  EXPECT_GT(ctx_.gpu_seconds(), before);
}

TEST(TransformWeighted, MapsOnThePoolAndChargesTheGivenCells) {
  util::ThreadPool pool(4);
  DeviceContext ctx(DeviceSpec::small_test_device(8 << 20), &pool);
  // Enough elements that the pool splits the map.
  std::vector<u32> host(50000);
  std::iota(host.begin(), host.end(), 0u);
  DeviceVector<u32> in(ctx, host.size());
  copy_to_device<u32>(in, host);
  DeviceVector<u64> out(ctx, host.size());

  ctx.reset_timeline();
  const double ready_after = 2.0;
  const std::size_t cells = 123456789;
  const double done = transform_weighted(
      in, out, [](u32 x) { return u64{x} * x + 1; }, cells, kDefaultStream,
      ready_after);
  std::vector<u64> got(host.size());
  copy_to_host<u64>(got, out);
  for (std::size_t i = 0; i < host.size(); ++i) {
    ASSERT_EQ(got[i], u64{host[i]} * host[i] + 1) << i;
  }
  // One kernel, priced by the cells it was handed, not by the elements.
  EXPECT_DOUBLE_EQ(done, ready_after + ctx.align_cost(cells));
  EXPECT_NE(ctx.align_cost(cells), ctx.transform_cost(host.size()));
}

TEST(TransformWeighted, OneLaunchConsumesOneKernelFaultIndex) {
  DeviceContext ctx(DeviceSpec::small_test_device(1 << 20));
  DeviceVector<u32> in(ctx, 3);
  copy_to_device<u32>(in, std::vector<u32>{1, 2, 3});
  DeviceVector<u32> out(ctx, 3);
  const auto id = [](u32 x) { return x; };

  auto plan = fault::FaultPlan::parse("kernel_fail@kernel:1");
  ctx.set_fault_plan(&plan);
  EXPECT_NO_THROW(transform_weighted(in, out, id, 9));
  EXPECT_THROW(transform_weighted(in, out, id, 9), KernelError);
  EXPECT_NO_THROW(transform_weighted(in, out, id, 9));
  ctx.set_fault_plan(nullptr);
  EXPECT_EQ(plan.injected(), 1u);
}

TEST_F(PrimitivesTest, SortMatchesStdSort) {
  util::Xoshiro256 rng(4);
  std::vector<u64> host(5000);
  for (auto& x : host) x = rng.next();
  auto dev = upload(host);
  sort(dev);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(download(dev), host);
}

TEST_F(PrimitivesTest, SortWithCustomComparator) {
  auto dev = upload<u32>({3, 1, 2});
  sort(dev, std::greater<u32>{});
  EXPECT_EQ(download(dev), (std::vector<u32>{3, 2, 1}));
}

TEST_F(PrimitivesTest, SortByKeyReordersValuesWithKeys) {
  auto keys = upload<u64>({30, 10, 20});
  auto values = upload<u32>({3, 1, 2});
  sort_by_key(keys, values);
  EXPECT_EQ(download(keys), (std::vector<u64>{10, 20, 30}));
  EXPECT_EQ(download(values), (std::vector<u32>{1, 2, 3}));
}

TEST_F(PrimitivesTest, SortByKeyIsStable) {
  auto keys = upload<u64>({1, 0, 1, 0});
  auto values = upload<u32>({10, 20, 30, 40});
  sort_by_key(keys, values);
  EXPECT_EQ(download(values), (std::vector<u32>{20, 40, 10, 30}));
}

TEST_F(PrimitivesTest, ExclusiveScan) {
  auto dev = upload<u64>({3, 1, 4, 1, 5});
  exclusive_scan(dev, u64{0});
  EXPECT_EQ(download(dev), (std::vector<u64>{0, 3, 4, 8, 9}));
}

TEST_F(PrimitivesTest, Gather) {
  auto src = upload<u32>({10, 20, 30, 40});
  auto map = upload<u64>({3, 0, 2});
  DeviceVector<u32> out(ctx_, 3);
  gather(src, map, out);
  EXPECT_EQ(download(out), (std::vector<u32>{40, 10, 30}));
}

TEST_F(PrimitivesTest, GatherRejectsOutOfRangeIndex) {
  auto src = upload<u32>({1, 2});
  auto map = upload<u64>({5});
  DeviceVector<u32> out(ctx_, 1);
  EXPECT_THROW(gather(src, map, out), InvalidArgument);
}

TEST_F(PrimitivesTest, MixedContextsRejected) {
  DeviceContext other(DeviceSpec::small_test_device(1 << 20));
  auto a = upload<u32>({1, 2, 3});
  DeviceVector<u32> b(other, 3);
  EXPECT_THROW(transform_weighted(a, b, [](u32 x) { return x; }, 3),
               InvalidArgument);
}

TEST_F(PrimitivesTest, KernelCostScalesWithElements) {
  auto small = upload<u32>(std::vector<u32>(100, 1));
  auto big = upload<u32>(std::vector<u32>(100000, 1));
  DeviceVector<u32> out_small(ctx_, 100), out_big(ctx_, 100000);

  // One DP cell per element.
  ctx_.reset_timeline();
  transform_weighted(small, out_small, [](u32 x) { return x; }, 100);
  const double t_small = ctx_.gpu_seconds();
  ctx_.reset_timeline();
  transform_weighted(big, out_big, [](u32 x) { return x; }, 100000);
  const double t_big = ctx_.gpu_seconds();
  EXPECT_GT(t_big, t_small * 10);
}

// --- segmented_min_s: the fused shingling kernel ---------------------------

u64 test_hash(u32 v) { return (u64{v} * 0x9e3779b97f4a7c15ULL) >> 4; }

/// Sort-then-take-front-s: what the paper's transform + segmented sort +
/// select kernels produce.
std::vector<u64> sort_take_front(const std::vector<u32>& members,
                                 const std::vector<u64>& offsets, u32 s) {
  std::vector<u64> out;
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    std::vector<u64> images;
    for (u64 i = offsets[g]; i < offsets[g + 1]; ++i) {
      images.push_back(test_hash(members[i]));
    }
    std::sort(images.begin(), images.end());
    images.resize(s, util::kMinSPad);
    out.insert(out.end(), images.begin(), images.end());
  }
  return out;
}

/// Segments of length 0, 1, s-1, s and >> s, repeated over `total` members.
void make_segments(u32 s, std::size_t total, u64 seed,
                   std::vector<u32>& members, std::vector<u64>& offsets) {
  util::Xoshiro256 rng(seed);
  const std::vector<u64> lengths = {0, 1, s - 1, s, 40 * s + 3, 0};
  offsets = {0};
  while (offsets.back() < total) {
    const u64 len = lengths[(offsets.size() - 1) % lengths.size()];
    offsets.push_back(std::min<u64>(total, offsets.back() + len));
  }
  members.resize(total);
  for (auto& m : members) m = static_cast<u32>(rng.next_below(1u << 20));
}

TEST(SegmentedMinS, MatchesSortThenTakeFrontOracle) {
  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    DeviceContext ctx(DeviceSpec::small_test_device(16 << 20), &pool);
    for (u32 s : {1u, 2u, 3u}) {
      // Both sides of the inline cutoff.
      for (std::size_t total : {std::size_t{500}, kInlineKernelElements + 77}) {
        std::vector<u32> members;
        std::vector<u64> offsets;
        make_segments(s, total, 17 * s + threads, members, offsets);
        const std::size_t nsegs = offsets.size() - 1;
        DeviceVector<u32> dev(ctx, members.size());
        copy_to_device<u32>(dev, members);
        DeviceVector<u64> out(ctx, nsegs * s);
        segmented_min_s(dev, offsets, test_hash, s, out);
        std::vector<u64> got(nsegs * s);
        copy_to_host<u64>(got, out);
        EXPECT_EQ(got, sort_take_front(members, offsets, s))
            << "threads=" << threads << " s=" << s << " total=" << total;
      }
    }
  }
}

TEST(SegmentedMinS, ChargesTheThreeKernelsItStandsFor) {
  DeviceContext ctx(DeviceSpec::small_test_device(16 << 20));
  const u32 s = 2;
  std::vector<u32> members;
  std::vector<u64> offsets;
  make_segments(s, 3000, 5, members, offsets);
  const std::size_t nsegs = offsets.size() - 1;
  DeviceVector<u32> dev(ctx, members.size());
  copy_to_device<u32>(dev, members);
  DeviceVector<u64> out(ctx, nsegs * s);

  ctx.reset_timeline();
  const double ready_after = 1.0;
  const double done =
      segmented_min_s(dev, offsets, test_hash, s, out, kDefaultStream,
                      ready_after);
  const u64 longest = 40 * s + 3;
  const double expected =
      ctx.transform_cost(members.size()) +
      ctx.segmented_sort_cost(members.size(), longest * sizeof(u64)) +
      ctx.transform_cost(nsegs * s);
  EXPECT_EQ(ctx.timeline().num_ops(), 3u);
  EXPECT_DOUBLE_EQ(ctx.gpu_seconds(), expected);
  // Only the select waits for the copy out of `out`.
  EXPECT_DOUBLE_EQ(done, ready_after + ctx.transform_cost(nsegs * s));
}

TEST(SegmentedMinS, OneLaunchConsumesOneKernelFaultIndex) {
  DeviceContext ctx(DeviceSpec::small_test_device(1 << 20));
  auto dev_members = std::vector<u32>{4, 1, 3, 2};
  DeviceVector<u32> dev(ctx, 4);
  copy_to_device<u32>(dev, dev_members);
  const std::vector<u64> offsets = {0, 2, 4};
  DeviceVector<u64> out(ctx, 4);

  auto plan = fault::FaultPlan::parse("kernel_fail@kernel:1");
  ctx.set_fault_plan(&plan);
  EXPECT_NO_THROW(segmented_min_s(dev, offsets, test_hash, 2, out));
  EXPECT_THROW(segmented_min_s(dev, offsets, test_hash, 2, out), KernelError);
  EXPECT_NO_THROW(segmented_min_s(dev, offsets, test_hash, 2, out));
  ctx.set_fault_plan(nullptr);
  EXPECT_EQ(plan.injected(), 1u);
}

TEST(SegmentedMinS, ValidatesArguments) {
  DeviceContext ctx(DeviceSpec::small_test_device(1 << 20));
  DeviceVector<u32> dev(ctx, 3);
  DeviceVector<u64> out(ctx, 4);
  const std::vector<u64> offsets = {0, 1, 3};
  const std::vector<u64> short_offsets = {0, 2};
  EXPECT_THROW(segmented_min_s(dev, short_offsets, test_hash, 2, out),
               InvalidArgument);
  EXPECT_THROW(segmented_min_s(dev, std::span<const u64>{}, test_hash, 2, out),
               InvalidArgument);
  EXPECT_THROW(segmented_min_s(dev, offsets, test_hash, 3, out),
               InvalidArgument);  // 2 segments * 3 slots > 4
  EXPECT_THROW(segmented_min_s(dev, offsets, test_hash, 0, out),
               InvalidArgument);
  EXPECT_NO_THROW(segmented_min_s(dev, offsets, test_hash, 2, out));
}

}  // namespace
}  // namespace gpclust::device
