#!/usr/bin/env python3
"""gpClust end-to-end benchmark.

    python3 perfbench/run.py --workload build|serve|append --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the product libraries and the
perfbench binary from source into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, checks its outputs and prints a report.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Exit codes: 0 success; 1 a correctness check failed; 2 build or runtime
error; 3 the open-loop generator fell behind its schedule (the run is
invalid and no result is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import ledger  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("build", "serve", "append")

# Generator health: an untraced run whose generator sent its median query
# later than this after the scheduled time fell behind its schedule and is
# invalid. (A host stall delays a short run of sends, after which the
# generator catches up; only a sustained lag moves the median.)
MAX_GENERATOR_LATENESS_MS = 1.0

# Span name -> layer for the ledger. Benchmark spans are named
# "<layer>.<public call>"; the program's own spans keep their names.
CORE_SPANS = ("pass1", "pass2", "aggregate1", "aggregate2", "report", "load")


def layer_of(name):
    if name.startswith("bench."):
        return "unattributed"
    head = name.split(".", 1)[0]
    if head == "homology":
        return "align"
    if head in CORE_SPANS:
        return "core"
    if head in ("seq", "align", "core", "store", "serve", "ingest"):
        return head
    return None


def matches(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


# Per-layer seconds read from spans: metric -> (span name, per).
# per "unit" divides by the workload's traced units (builds or batches);
# per "call" averages over the span's own occurrences (set-up calls).
SPAN_SECONDS = {
    "seq.read_fasta_s": ("seq.read_fasta", "unit"),
    "align.seed_s": ("homology.seed", "unit"),
    "align.prefilter_s": ("homology.prefilter", "unit"),
    "align.verify_s": ("homology.verify", "unit"),
    "align.graph_s": ("homology.graph", "unit"),
    "core.pass1_s": ("pass1", "unit"),
    "core.pass2_s": ("pass2", "unit"),
    "core.aggregate1_s": ("aggregate1", "unit"),
    "core.aggregate2_s": ("aggregate2", "unit"),
    "core.report_s": ("report", "unit"),
    "store.build_s": ("store.build_family_store", "unit"),
    "store.write_s": ("store.write_snapshot", "unit"),
    "store.load_s": ("store.load_snapshot", "call"),
    "store.delta_write_s": ("store.write_delta", "unit"),
    "serve.index_build_s": ("serve.construct", "call"),
    "serve.reload_s": ("serve.reload_with_delta", "unit"),
    "ingest.resume_s": ("ingest.resume", "call"),
    "ingest.seed_s": ("ingest.seed", "unit"),
    "ingest.verify_s": ("ingest.verify", "unit"),
    "ingest.recluster_s": ("ingest.recluster", "unit"),
}

# Fault-layer counters: any nonzero value on these fault-free runs fails.
FAULT_COUNTERS = ("faults_injected", "retries", "batch_replans",
                  "pipeline_drains", "cpu_fallbacks")

# Per-layer counts read from the program's tracer counters, per unit.
COUNTERS = {
    "core.tuples": "tuples",
    "core.shingles": "shingles",
    "core.batches": "batches",
    "device.h2d_bytes": "h2d_bytes",
    "device.d2h_bytes": "d2h_bytes",
}


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# --- build -------------------------------------------------------------------

def build_binary():
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no gpClust sources under %s/src" % ROOT)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return build_dir, os.path.join(build_dir, "perfbench")


def run_binary(binary, build_dir, args):
    work = os.path.join(build_dir, "work", args.workload)
    out = os.path.join(build_dir, "work", args.workload + ".json")
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
             "--work-dir=" + work, "--out=" + out],
            stdout=sys.stderr, timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    with open(out) as f:
        raw = json.load(f)
    if args.trace:
        # The span log of the latest traced run of each workload is kept.
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        os.replace(out, os.path.join(traces, args.workload + ".json"))
    else:
        os.remove(out)
    return raw


# --- metrics -----------------------------------------------------------------

def query_latencies(raw):
    """Answered latencies plus one infinite sample per rejected query."""
    v = raw["values"]
    return raw["samples"]["latency_ms"] + [float("inf")] * int(
        v.get("serve.rejected", 0))


def end_to_end(workload, raw):
    """Every end-to-end metric plus the workload-specific numbers the report
    prints beside them."""
    v, s = raw["values"], raw["samples"]
    m = {"setup_s": ledger.median(s["setup_s"]),
         "family_ppv": v["family_ppv"], "family_se": v["family_se"],
         "peak_rss_mb": v["peak_rss_mb"]}
    extra = {}
    if workload == "build":
        walls = s["unit_wall_s"]
        m["orfs_per_s"] = v["unit_orfs"] / ledger.median(walls)
        latency = [1e3 * w for w in walls]
        extra["device_modeled_s"] = (v["device.makespan_modeled_s"], "modeled s")
        extra["builds"] = (len(walls), "count")
    else:
        latency = query_latencies(raw)
        extra["query_p50_ms"] = (ledger.median(latency), "ms")
        extra["query_p99_ms"] = (ledger.nearest_rank(latency, 99), "ms")
        t = ledger.tail(latency)
        extra["query_tail_ms"] = (t[1], "ms (p%g of %d)" % (t[0], len(latency)))
        extra["queries"] = (len(latency), "count")
        extra["gen_lateness_p99_ms"] = (
            ledger.nearest_rank(s["lateness_ms"], 99), "ms")
    if workload == "serve":
        m["orfs_per_s"] = v["burst_queries"] / ledger.median(s["burst_wall_s"])
        extra["query_max_qps"] = (v["query_max_qps"], "q/s (p99 <= %g ms)"
                                  % v["latency_limit_ms"])
        extra["offered_rate"] = (v["fixed_rate_qps"], "q/s")
        extra["backlog_at_end"] = (v["backlog_end"], "queries")
    if workload == "append":
        fresh = s["fresh_s"]
        m["orfs_per_s"] = v["unit_orfs_total"] / sum(fresh)
        extra["fresh_p50_s"] = (ledger.median(fresh), "s")
        t = ledger.tail(fresh)
        extra["fresh_tail_s"] = ((t[1], "s (p%g of %d batches)" % (t[0], len(fresh)))
                                 if t else (max(fresh), "s (max; < 20 batches)"))
        extra["device_modeled_s"] = (v["device.makespan_modeled_s"],
                                     "modeled s per batch")
    extra["latency_p50_ms"] = (ledger.median(latency), "ms")
    extra["latency_p90_ms"] = (ledger.nearest_rank(latency, 90), "ms")
    extra["fail_frac"] = (raw["failed"] / max(1, raw["attempted"]), "ratio")
    return m, extra


def per_layer(workload, raw):
    """Every per-layer metric, zero where the workload does not run the layer
    (the prediction for that pairing is "no change")."""
    v, s, counters = raw["values"], raw["samples"], raw["counters"]
    units = max(1.0, v.get("units_traced", 1.0))
    events = raw["events"]
    main = [sp for sp in raw["spans"] if sp["thread"] == "main"]
    spans = events + main
    m = {}
    for metric, (prefix, per) in SPAN_SECONDS.items():
        hits = [(e["start"], e["start"] + e["dur"]) for e in spans
                if matches(e["name"], prefix)]
        covered = ledger.union_length(hits)
        m[metric] = covered / (max(1, len(hits)) if per == "call" else units)
    for metric, counter in COUNTERS.items():
        m[metric] = counters.get(counter, 0.0) / units
    m["device.arena_peak_bytes"] = counters.get("arena_peak_bytes", 0.0)
    for name in ("seq.residues", "align.candidate_pairs",
                 "align.seed_peak_bytes", "align.surviving_pairs",
                 "align.edges", "align.simd_runs_8bit",
                 "align.simd_rescues_16bit", "align.scalar_fallbacks",
                 "core.split_lists", "device.makespan_modeled_s",
                 "device.kernel_exposed_s", "device.h2d_exposed_s",
                 "device.d2h_exposed_s", "store.snapshot_bytes",
                 "store.delta_bytes", "serve.score_candidates_s",
                 "serve.decide_s", "serve.candidates_per_query",
                 "serve.profile_hit_ratio", "serve.rejected",
                 "ingest.candidate_pairs", "ingest.touched_fraction"):
        m[name] = v.get(name, 0.0)
    pairs = m["align.candidate_pairs"]
    m["align.edge_yield"] = m["align.edges"] / pairs if pairs else 0.0

    roots = ledger.build_tree(spans)
    by_layer = ledger.self_times_by(roots, layer_of)
    m["core.unattributed_s"] = sum(
        ledger.node_self_time(n) for n in ledger.walk(roots)
        if n["name"] == "core.cluster") / units

    if workload == "serve":
        # Per fixed-rate query: scheduled-send-to-answer latency minus
        # generator lateness, queue wait and classify time is the hand-off
        # cost no span covers.
        waits = s.get("serve.wait_ms", [])
        covered = (sum(s["lateness_ms"]) + sum(waits) +
                   sum(s.get("serve.classify_ms", [])))
        residual = max(0.0, 1e-3 * (sum(s["latency_ms"]) - covered))
        m["unattributed_s"] = residual / max(1, len(waits))
        # The open-loop phases are the generator's schedule, not work: the
        # ledger ranks the workers' classify time instead.
        by_layer.pop("unattributed", None)
        by_layer["serve"] = (by_layer.get("serve", 0.0) +
                             1e-3 * sum(s.get("serve.classify_ms", [])))
        by_layer["unattributed"] = residual
    else:
        m["unattributed_s"] = by_layer.get("unattributed", 0.0) / units

    for name, key in (("serve.wait_p99_ms", "serve.wait_ms"),
                      ("serve.classify_p99_ms", "serve.classify_ms")):
        m[name] = ledger.nearest_rank(s[key], 99) if s.get(key) else 0.0
    m["serve.classify_p50_ms"] = (ledger.median(s["serve.classify_ms"])
                                  if s.get("serve.classify_ms") else 0.0)
    m["serve.gen_lateness_ms"] = (ledger.nearest_rank(s["lateness_ms"], 99)
                                  if s.get("lateness_ms") else 0.0)
    m["serve.backlog_end"] = v.get("backlog_end", 0.0)
    if workload == "append":
        derived = (v["ingest.stats_seed_s"] + v["ingest.stats_verify_s"] +
                   v["ingest.stats_recluster_s"])
        calls = [e["dur"] for e in main
                 if e["name"] == "ingest.ingest_with_delta"]
        m["ingest.delta_derive_s"] = sum(calls) / units - derived
    else:
        m["ingest.delta_derive_s"] = 0.0

    untraced, traced = s.get("unit_wall_s", []), s.get("traced_wall_s", [])
    m["obs.trace_overhead_frac"] = (
        ledger.median(traced) / ledger.median(untraced) - 1.0
        if untraced and traced else 0.0)
    m["obs.trace_events"] = v.get("trace_events", 0.0)
    return m, by_layer


# --- report ------------------------------------------------------------------

WORK = {  # layer -> (metric, label) read beside its seconds
    "seq": ("seq.residues", "residues"),
    "align": ("align.candidate_pairs", "pairs"),
    "core": ("core.tuples", "tuples"),
    "store": ("store.snapshot_bytes", "bytes"),
    "ingest": ("ingest.candidate_pairs", "pairs"),
}


def print_ledger(workload, metrics, by_layer, raw):
    units = max(1.0, raw["values"].get("units_traced", 1.0))
    print("ledger (%s, traced run; host-measured seconds per %s):"
          % (workload, {"build": "build", "append": "batch"}.get(
              workload, "run")))
    rows = sorted(by_layer.items(), key=lambda kv: -kv[1])
    total = sum(by_layer.values()) or 1.0
    print("  %-14s %12s %7s %16s %16s" % ("layer", "self s", "share",
                                          "work", "throughput"))
    for layer, seconds in rows:
        per = seconds / (units if workload != "serve" else 1.0)
        work = WORK.get(layer)
        count = metrics.get(work[0], 0.0) if work else 0.0
        rate = ("%.3g %s/s" % (count / per, work[1])
                if work and count and per > 0 else "")
        print("  %-14s %12.4f %6.1f%% %16s %16s"
              % ("unattributed_s" if layer == "unattributed" else layer, per,
                 100.0 * seconds / total,
                 "%.0f %s" % (count, work[1]) if work and count else "",
                 rate))
    if workload == "serve":
        s = raw["samples"]
        print("  per query: wait p99 %.3f ms, classify p50 %.3f / p99 %.3f ms,"
              " unattributed %.4f ms"
              % (metrics["serve.wait_p99_ms"], metrics["serve.classify_p50_ms"],
                 metrics["serve.classify_p99_ms"],
                 1e3 * metrics["unattributed_s"]))
        print("  worker busy %.3f s over %d fixed-rate queries"
              % (1e-3 * sum(s.get("serve.classify_ms", [])),
                 len(s.get("serve.classify_ms", []))))
    print("  device (modeled, never added to host seconds): makespan %.4f s,"
          " kernel %.4f / h2d %.4f / d2h %.4f s exposed"
          % (metrics["device.makespan_modeled_s"],
             metrics["device.kernel_exposed_s"],
             metrics["device.h2d_exposed_s"], metrics["device.d2h_exposed_s"]))
    print("  tracing overhead: %+.1f%% (traced vs untraced wall, %d + %d units)"
          % (100.0 * metrics["obs.trace_overhead_frac"],
             len(raw["samples"].get("traced_wall_s", [])),
             len(raw["samples"].get("unit_wall_s", []))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        declared_e2e, declared_layer = load_declared()
        build_dir, binary = build_binary()
        raw = run_binary(binary, build_dir, args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    fired = [c for c in FAULT_COUNTERS if raw["counters"].get(c, 0)]
    raw["checks"].append({"name": "no fault counters fired",
                          "ok": not fired, "detail": " ".join(fired)})
    if fired:
        raw["correct"] = False
        raw["failed"] += 1

    fp = raw["info"]["fingerprint"]
    print("host: nproc=%s compiler=%s build=%s simd=%s sanitizer=%s"
          % (fp["nproc"], fp["compiler"], fp["build_type"],
             fp["simd_backend"], fp["sanitizer"]))
    print("workload %s, seed %d, %g s measured, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for check in raw["checks"]:
        print("check %-58s %s %s" % (check["name"],
                                     "ok" if check["ok"] else "FAILED",
                                     check["detail"]))

    # A traced run's lateness includes the tracer's own stalls (one mutex
    # per event, an unbounded event vector); it is reported, not judged.
    lateness = raw["samples"].get("lateness_ms")
    if (not args.trace and lateness and
            ledger.median(lateness) > MAX_GENERATOR_LATENESS_MS):
        print("INVALID: the open-loop generator fell behind (median lateness "
              "%.3f ms > %.1f ms); no result reported"
              % (ledger.median(lateness), MAX_GENERATOR_LATENESS_MS))
        return 3

    if args.trace:
        metrics, by_layer = per_layer(args.workload, raw)
        print_ledger(args.workload, metrics, by_layer, raw)
        declared = declared_layer
    else:
        metrics, extra = end_to_end(args.workload, raw)
        declared = declared_e2e
        for name, (value, unit) in extra.items():
            print("  %-22s %14.6g  %s" % (name, value, unit))
    out = {}
    for d in declared:
        value = float(metrics[d["name"]])
        out[d["name"]] = {"value": value, "unit": d["unit"]}
        print("  %-28s %14.6g  %s%s"
              % (d["name"], value, d["unit"],
                 "" if args.trace else " (%s is better)" % d["better"]))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": out}))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
