#include "device/device_spec.hpp"

namespace gpclust::device {

DeviceSpec DeviceSpec::tesla_k20() {
  DeviceSpec spec;
  spec.name = "Tesla K20 (simulated)";
  spec.global_memory_bytes = 5ULL << 30;
  spec.num_cores = 2496;
  spec.clock_ghz = 0.706;
  // Calibration: the K20's aggregate core-cycles (2496 cores x 0.706 GHz
  // = 1762 GHz-core) give it a raw ~700x advantage over one ~2 GHz host
  // core; the effective pipeline throughputs below assume a few percent
  // warp/memory efficiency on the hash and segmented-sort kernels, which
  // lands the accelerated-part speedup in the regime the paper reports
  // (~45x on the 20K graph) relative to a single-core serial baseline.
  spec.transform_elems_per_sec = 8.0e9;
  spec.sort_elems_per_sec = 3.0e9;
  // Batched SW verification: inter-task parallel kernels on Kepler-class
  // parts reach tens of GCUPS (CUDASW++-style); 25 GCUPS effective keeps
  // the verify stage in the same calibration regime as the other kernels.
  spec.align_cells_per_sec = 2.5e10;
  spec.kernel_launch_sec = 10e-6;
  spec.h2d_bytes_per_sec = 3.0e9;
  spec.d2h_bytes_per_sec = 2.5e9;
  spec.transfer_latency_sec = 20e-6;
  return spec;
}

DeviceSpec DeviceSpec::tesla_c2050() {
  DeviceSpec spec = tesla_k20();
  spec.name = "Tesla C2050 (simulated)";
  spec.global_memory_bytes = 3ULL << 30;
  spec.num_cores = 448;
  spec.clock_ghz = 1.15;
  // Aggregate cycles: 448 * 1.15 = 515 GHz-core vs the K20's 1762 —
  // scale the effective pipeline throughputs by the same ~0.29 factor.
  spec.transform_elems_per_sec = 2.3e9;
  spec.sort_elems_per_sec = 0.9e9;
  spec.align_cells_per_sec = 7.3e9;
  spec.shared_memory_per_block = 48 << 10;
  spec.h2d_bytes_per_sec = 2.5e9;
  spec.d2h_bytes_per_sec = 2.0e9;
  return spec;
}

DeviceSpec DeviceSpec::small_test_device(std::size_t memory_bytes) {
  DeviceSpec spec;
  spec.name = "tiny test device";
  spec.global_memory_bytes = memory_bytes;
  spec.num_cores = 64;
  spec.transform_elems_per_sec = 1e8;
  spec.sort_elems_per_sec = 5e7;
  spec.align_cells_per_sec = 2.5e8;
  spec.h2d_bytes_per_sec = 100e6;
  spec.d2h_bytes_per_sec = 100e6;
  return spec;
}

}  // namespace gpclust::device
