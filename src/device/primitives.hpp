#pragma once
// Thrust-style parallel primitives over DeviceVector.
//
// These are the building blocks the paper names explicitly (§III-C): the
// shingling kernel is "two efficient primitives transform() and sorting()
// implemented in the Thrust library" — here segmented_min_s, which runs
// that transform + segmented sort + select as one host pass and charges
// the three kernels. Each primitive executes its real computation on the
// host thread pool (the simulated device's cores) and charges modeled
// device time on the context timeline. Every function
// returns the op's completion time so callers can express cross-stream
// dependencies (used by the asynchronous pipeline).

#include <algorithm>
#include <functional>
#include <numeric>

#include "device/device_vector.hpp"
#include "device/fault_points.hpp"
#include "util/min_s.hpp"

namespace gpclust::device {

namespace detail {
template <typename T>
DeviceContext& ctx_of(const DeviceVector<T>& v) {
  GPCLUST_CHECK(v.context() != nullptr, "device vector is not allocated");
  return *v.context();
}
}  // namespace detail

/// out[i] = f(in[i]) for i in [0, in.size()), a map kernel whose
/// per-element work is data-dependent: the modeled duration is charged
/// from the caller-supplied total work via DeviceContext::align_cost
/// instead of the element count. This is the batched Smith-Waterman
/// verification kernel's shape — one task per candidate pair, |a| * |b|
/// DP cells per task.
template <typename T, typename U, typename F>
double transform_weighted(const DeviceVector<T>& in, DeviceVector<U>& out, F f,
                          std::size_t total_cells,
                          StreamId stream = kDefaultStream,
                          double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  detail::maybe_inject_kernel_fault(ctx, "transform_weighted");
  GPCLUST_CHECK(out.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(out.size() >= in.size(), "output too small");
  auto src = in.device_span();
  auto dst = out.device_span();
  ctx.pool().parallel_for(0, src.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) dst[i] = f(src[i]);
  });
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.align_cost(total_cells), ready_after);
}

/// Whole-buffer comparison sort (thrust::sort).
template <typename T, typename Cmp = std::less<T>>
double sort(DeviceVector<T>& data, Cmp cmp = Cmp{},
            StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  detail::maybe_inject_kernel_fault(ctx, "sort");
  auto sp = data.device_span();
  std::sort(sp.begin(), sp.end(), cmp);
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.sort_cost(sp.size()), ready_after);
}

/// Kernels over fewer elements run inline on the calling thread: below
/// this size a pool dispatch costs more than the work it spreads.
inline constexpr std::size_t kInlineKernelElements = std::size_t{1} << 16;

/// The shingling kernel of Figure 4 in one pass: for each segment
/// [offsets[g], offsets[g+1]) of `members`, out[g*s .. g*s+s) receives the
/// s smallest of {hash(m) : m in the segment}, ascending, padded with
/// util::kMinSPad when the segment is shorter than s. That is what the
/// paper's transform (hash every member), segmented sort and take-front-s
/// select produce, and the timeline is charged exactly those three
/// kernels: the map over members.size() elements, the segmented sort, and
/// the select over num_segments * s slots. The select overwrites `out`, so
/// it waits for `ready_after` (the last copy out of `out`); the return
/// value is its completion time. The host executes a single pass,
/// spread over the pool by elements (inline below kInlineKernelElements),
/// and consults the kernel fault point once per launch.
template <typename T, typename F>
double segmented_min_s(const DeviceVector<T>& members,
                       std::span<const u64> offsets, F hash, u32 s,
                       DeviceVector<u64>& out, StreamId stream = kDefaultStream,
                       double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(members);
  detail::maybe_inject_kernel_fault(ctx, "segmented_min_s");
  GPCLUST_CHECK(out.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(!offsets.empty() && offsets.back() == members.size(),
                "offsets must cover the data exactly");
  GPCLUST_CHECK(s >= 1, "need at least one minimum per segment");
  const std::size_t nsegs = offsets.size() - 1;
  const std::size_t nelems = members.size();
  GPCLUST_CHECK(out.size() >= nsegs * s, "output too small");
  auto src = members.device_span();
  auto dst = out.device_span();

  // Part k covers the segments starting in [nelems*k/parts,
  // nelems*(k+1)/parts), so each part holds about the same elements.
  const std::size_t parts =
      nelems < kInlineKernelElements ? 1 : ctx.pool().size();
  std::vector<u64> part_max(parts, 0);
  auto run_part = [&](std::size_t k) {
    const auto first_seg = [&](std::size_t part) -> std::size_t {
      if (part == parts) return nsegs;
      const u64 target = static_cast<u64>(nelems * part / parts);
      return static_cast<std::size_t>(
          std::lower_bound(offsets.begin(), offsets.end() - 1, target) -
          offsets.begin());
    };
    u64 longest = 0;
    for (std::size_t g = first_seg(k), end = first_seg(k + 1); g < end; ++g) {
      const u64 lo = offsets[g];
      const u64 len = offsets[g + 1] - lo;
      longest = std::max(longest, len);
      util::min_s_keys(src.subspan(lo, len), hash, dst.subspan(g * s, s));
    }
    part_max[k] = longest;
  };
  if (parts == 1) {
    run_part(0);
  } else {
    ctx.pool().parallel_for(0, parts, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) run_part(k);
    });
  }
  const u64 max_segment = *std::max_element(part_max.begin(), part_max.end());

  ctx.timeline().enqueue(stream, OpKind::Kernel, ctx.transform_cost(nelems),
                         0.0);
  ctx.timeline().enqueue(
      stream, OpKind::Kernel,
      ctx.segmented_sort_cost(
          nelems, static_cast<std::size_t>(max_segment) * sizeof(u64)),
      0.0);
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.transform_cost(nsegs * s), ready_after);
}

/// Key-value sort (thrust::sort_by_key): reorders both arrays so keys are
/// ascending, values following their keys. Stable.
template <typename K, typename V>
double sort_by_key(DeviceVector<K>& keys, DeviceVector<V>& values,
                   StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(keys);
  detail::maybe_inject_kernel_fault(ctx, "sort_by_key");
  GPCLUST_CHECK(values.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(keys.size() == values.size(), "key/value size mismatch");
  auto ks = keys.device_span();
  auto vs = values.device_span();
  std::vector<u64> perm(ks.size());
  std::iota(perm.begin(), perm.end(), u64{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](u64 a, u64 b) { return ks[a] < ks[b]; });
  std::vector<K> tmp_k(ks.size());
  std::vector<V> tmp_v(vs.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    tmp_k[i] = ks[perm[i]];
    tmp_v[i] = vs[perm[i]];
  }
  std::copy(tmp_k.begin(), tmp_k.end(), ks.begin());
  std::copy(tmp_v.begin(), tmp_v.end(), vs.begin());
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.sort_cost(ks.size()), ready_after);
}

/// Exclusive prefix sum (thrust::exclusive_scan), in place.
template <typename T>
double exclusive_scan(DeviceVector<T>& data, T init,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  detail::maybe_inject_kernel_fault(ctx, "exclusive_scan");
  auto sp = data.device_span();
  T running = init;
  for (auto& x : sp) {
    const T next = static_cast<T>(running + x);
    x = running;
    running = next;
  }
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.transform_cost(sp.size()), ready_after);
}

/// Inclusive prefix sum (thrust::inclusive_scan), in place.
template <typename T>
double inclusive_scan(DeviceVector<T>& data,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  detail::maybe_inject_kernel_fault(ctx, "inclusive_scan");
  auto sp = data.device_span();
  T running{};
  for (auto& x : sp) {
    running = static_cast<T>(running + x);
    x = running;
  }
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.transform_cost(sp.size()), ready_after);
}

/// Segment-reduces runs of equal keys (thrust::reduce_by_key): writes one
/// (key, reduced value) per run into out_keys/out_values and returns the
/// run count. Output vectors must be at least as large as the input.
template <typename K, typename V, typename Op = std::plus<V>>
std::size_t reduce_by_key(const DeviceVector<K>& keys,
                          const DeviceVector<V>& values,
                          DeviceVector<K>& out_keys,
                          DeviceVector<V>& out_values, Op op = Op{},
                          StreamId stream = kDefaultStream) {
  DeviceContext& ctx = detail::ctx_of(keys);
  GPCLUST_CHECK(values.context() == &ctx && out_keys.context() == &ctx &&
                    out_values.context() == &ctx,
                "vectors belong to different devices");
  GPCLUST_CHECK(keys.size() == values.size(), "key/value size mismatch");
  GPCLUST_CHECK(out_keys.size() >= keys.size() &&
                    out_values.size() >= values.size(),
                "output too small");
  auto ks = keys.device_span();
  auto vs = values.device_span();
  auto ok = out_keys.device_span();
  auto ov = out_values.device_span();
  std::size_t runs = 0;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (runs > 0 && ok[runs - 1] == ks[i]) {
      ov[runs - 1] = op(ov[runs - 1], vs[i]);
    } else {
      ok[runs] = ks[i];
      ov[runs] = vs[i];
      ++runs;
    }
  }
  ctx.timeline().enqueue(stream, OpKind::Kernel, ctx.transform_cost(ks.size()),
                         0.0);
  return runs;
}

/// out[i] = in[map[i]] (thrust::gather).
template <typename T>
double gather(const DeviceVector<T>& in, const DeviceVector<u64>& map,
              DeviceVector<T>& out, StreamId stream = kDefaultStream,
              double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  detail::maybe_inject_kernel_fault(ctx, "gather");
  GPCLUST_CHECK(out.size() >= map.size(), "output too small");
  auto src = in.device_span();
  auto idx = map.device_span();
  auto dst = out.device_span();
  ctx.pool().parallel_for(0, idx.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      GPCLUST_CHECK(idx[i] < src.size(), "gather index out of range");
      dst[i] = src[idx[i]];
    }
  });
  return ctx.timeline().enqueue(stream, OpKind::Kernel,
                                ctx.transform_cost(idx.size()), ready_after);
}

}  // namespace gpclust::device
