// Tests for the extended Thrust-parity primitives (scans, reduce_by_key).

#include <gtest/gtest.h>

#include "device/primitives.hpp"
#include "util/rng.hpp"

namespace gpclust::device {
namespace {

class PrimitivesExtraTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{DeviceSpec::small_test_device(8 << 20)};

  template <typename T>
  DeviceVector<T> upload(const std::vector<T>& host) {
    DeviceVector<T> dev(ctx_, host.size());
    copy_to_device<T>(dev, host);
    return dev;
  }

  template <typename T>
  std::vector<T> download(const DeviceVector<T>& dev, std::size_t count = 0) {
    std::vector<T> host(count == 0 ? dev.size() : count);
    copy_to_host<T>(host, dev);
    return host;
  }
};

TEST_F(PrimitivesExtraTest, InclusiveScan) {
  auto dev = upload<u64>({1, 2, 3, 4});
  inclusive_scan(dev);
  EXPECT_EQ(download(dev), (std::vector<u64>{1, 3, 6, 10}));
}

TEST_F(PrimitivesExtraTest, ScansAgree) {
  // inclusive[i] == exclusive[i+1] for the same input.
  util::Xoshiro256 rng(4);
  std::vector<u64> host(100);
  for (auto& x : host) x = rng.next_below(50);
  auto inc = upload(host);
  auto exc = upload(host);
  inclusive_scan(inc);
  exclusive_scan(exc, u64{0});
  const auto iv = download(inc);
  const auto ev = download(exc);
  for (std::size_t i = 0; i + 1 < host.size(); ++i) {
    EXPECT_EQ(iv[i], ev[i + 1]);
  }
}

TEST_F(PrimitivesExtraTest, ReduceByKeySumsRuns) {
  auto keys = upload<u64>({1, 1, 2, 2, 2, 7});
  auto values = upload<u32>({10, 20, 1, 2, 3, 5});
  DeviceVector<u64> out_keys(ctx_, 6);
  DeviceVector<u32> out_values(ctx_, 6);
  const std::size_t runs =
      reduce_by_key(keys, values, out_keys, out_values);
  EXPECT_EQ(runs, 3u);
  EXPECT_EQ(download(out_keys, runs), (std::vector<u64>{1, 2, 7}));
  EXPECT_EQ(download(out_values, runs), (std::vector<u32>{30, 6, 5}));
}

TEST_F(PrimitivesExtraTest, ReduceByKeyNonAdjacentKeysStaySeparate) {
  auto keys = upload<u64>({1, 2, 1});
  auto values = upload<u32>({5, 5, 5});
  DeviceVector<u64> out_keys(ctx_, 3);
  DeviceVector<u32> out_values(ctx_, 3);
  EXPECT_EQ(reduce_by_key(keys, values, out_keys, out_values), 3u);
}

TEST_F(PrimitivesExtraTest, ReduceByKeyCustomOp) {
  auto keys = upload<u64>({1, 1, 1});
  auto values = upload<u32>({3, 7, 5});
  DeviceVector<u64> out_keys(ctx_, 3);
  DeviceVector<u32> out_values(ctx_, 3);
  const std::size_t runs = reduce_by_key(
      keys, values, out_keys, out_values,
      [](u32 a, u32 b) { return std::max(a, b); });
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(download(out_values, runs), (std::vector<u32>{7}));
}

TEST_F(PrimitivesExtraTest, SizeValidation) {
  auto keys = upload<u64>({1, 2});
  auto values = upload<u32>({1, 2, 3});
  DeviceVector<u64> out_keys(ctx_, 3);
  DeviceVector<u32> out_values(ctx_, 3);
  EXPECT_THROW(reduce_by_key(keys, values, out_keys, out_values),
               InvalidArgument);

  auto in = upload<u32>({1, 2, 3});
  DeviceVector<u32> small(ctx_, 1);
  EXPECT_THROW(transform_weighted(in, small, [](u32 x) { return x; }, 3),
               InvalidArgument);
}

TEST_F(PrimitivesExtraTest, AllChargeKernelTime) {
  auto dev = upload<u32>(std::vector<u32>(1000, 1));
  auto keys = upload<u64>(std::vector<u64>(1000, 7));
  DeviceVector<u32> out(ctx_, 1000);
  DeviceVector<u64> out_keys(ctx_, 1000);
  ctx_.reset_timeline();
  transform_weighted(dev, out, [](u32 x) { return x + 1; }, 1000);
  inclusive_scan(dev);
  exclusive_scan(dev, 0u);
  reduce_by_key(keys, dev, out_keys, out);
  EXPECT_GT(ctx_.gpu_seconds(), 0.0);
  EXPECT_EQ(ctx_.timeline().num_ops(), 4u);
}

}  // namespace
}  // namespace gpclust::device
