// perfbench — runs one end-to-end workload of the gpClust benchmark and
// writes its raw result (values, samples, checks, and in traced runs the
// span log) as JSON. run.py builds this binary, runs it and derives the
// reported metrics; see perfbench/README.md.
//
//   perfbench --workload=build|serve|append --seed=N --seconds=S
//             --trace=0|1 --work-dir=DIR --out=PATH
//
// Exit codes: 0 all correctness checks passed; 1 a check failed (the
// result is still written); 2 usage or runtime error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "align/simd.hpp"
#include "bench.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

json::Value host_fingerprint() {
  std::string simd = "scalar-lanes";
  if (gpclust::align::simd_vectorized()) {
#if defined(__SSE2__)
    simd = "sse2";
#else
    simd = "gnu-vector";
#endif
  }
  std::string sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
  return json::object({
      {"nproc", json::number(std::thread::hardware_concurrency())},
      {"compiler", json::string(PERFBENCH_COMPILER)},
      {"build_type", json::string(PERFBENCH_BUILD_TYPE)},
      {"simd_backend", json::string(simd)},
      {"sanitizer", json::string(sanitizer)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const gpclust::util::CliArgs args(argc, argv);
    Options options;
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<u64>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.work_dir = args.get_string("work-dir", "");
    const std::string out_path = args.get_string("out", "");
    if (options.work_dir.empty() || out_path.empty() || options.seconds <= 0) {
      std::fprintf(stderr,
                   "usage: perfbench --workload=build|serve|append --seed=N "
                   "--seconds=S --trace=0|1 --work-dir=DIR --out=PATH\n");
      return 2;
    }
    // The workloads write snapshot chains there; stale links from an
    // earlier run would extend them.
    if (std::filesystem::exists(options.work_dir) &&
        !std::filesystem::is_empty(options.work_dir)) {
      std::fprintf(stderr, "work dir %s is not empty\n",
                   options.work_dir.c_str());
      return 2;
    }
    std::filesystem::create_directories(options.work_dir);

    Result result;
    if (options.workload == "build") {
      run_build(options, result);
    } else if (options.workload == "serve") {
      run_serve(options, result);
    } else if (options.workload == "append") {
      run_append(options, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    result.info("fingerprint", host_fingerprint());
    result.info("seed", json::number(static_cast<double>(options.seed)));

    std::ofstream out(out_path);
    out << json::dump(result.to_json()) << '\n';
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    return result.all_checks_passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
