#!/usr/bin/env python3
"""Layered benchmark of the shep fleet and design-exploration pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build.  --trace 0 measures the end-to-end
metrics of BENCHMARK.json with spans off, one fresh process per cold
repetition, until --seconds is spent; --trace 1 runs the per-layer pass and
reports the per-layer metrics.  Every repetition's output digest is checked
against the serial stage-by-stage replay of the same seed.  The last line
of stdout is the result object; a failed check exits 1 after printing it.
--workload all runs every workload in both modes and prints each result.
See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_mix", "fleet_coord", "fleet_faulted_traced", "paper_sweep")
MIN_REPS = 3
MAX_REPS = 200
CHILD_DEADLINE_S = 150.0  # every run must end within 180 s once built.


class BenchError(Exception):
    """A failure that leaves no result to print."""


# ---- statistics and span helpers (tested by test_run.py) --------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span id -> its duration minus the part its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return {
        span["id"]: (span["end_s"] - span["start_s"]) - covered(
            span["start_s"], span["end_s"],
            [(c["start_s"], c["end_s"]) for c in children.get(span["id"], [])])
        for span in spans
    }


def attribute(spans, root_name="replay"):
    """Self time per layer inside the first root span named `root_name`.

    Returns (root duration, {layer: self seconds}).  The root's own layer
    ("perfbench") holds what no named layer covers.
    """
    roots = [s for s in spans if s["parent"] == 0 and s["name"] == root_name]
    if not roots:
        raise BenchError("no %r root span" % root_name)
    root = roots[0]
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    subtree, stack = [], [root]
    while stack:
        span = stack.pop()
        subtree.append(span)
        stack.extend(by_parent.get(span["id"], []))
    own = self_times(subtree)
    layers = {}
    for span in subtree:
        layers[span["layer"]] = layers.get(span["layer"], 0.0) + own[span["id"]]
    return root["end_s"] - root["start_s"], layers


# ---- build and child processes ----------------------------------------------

def build(root):
    for needed in ("CMakeLists.txt", os.path.join("src", "fleet", "runner.hpp"),
                   os.path.join("tools", "fleet", "shep_fleet_worker.cpp")):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError("not a shep checkout: %s is missing" % needed)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench"), build_root


def run_child(argv, deadline):
    """Runs argv in its own process group; returns its parsed JSON line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("timed out: " + " ".join(argv))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(argv)))
    return json.loads(out.strip().splitlines()[-1])


def operations(shape):
    """Shards for fleet workloads, scored designs for paper_sweep."""
    return shape["shards"] or shape["designs"]


# ---- the two modes ------------------------------------------------------------

def measure_end_to_end(binary, args, spec, deadline):
    extra = ["--tiny"] if args.tiny else []
    seed = str(args.seed)
    reference = run_child([binary, "reference", args.workload, seed] + extra,
                          deadline)
    reps, start = [], time.monotonic()
    while len(reps) < MAX_REPS:
        reps.append(run_child([binary, "rep", args.workload, seed] + extra,
                              deadline))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break
    attempted = failed = 0
    for rep in reps:
        attempted += rep["attempted"]
        failed += (rep["attempted"] if rep["digest"] != reference["digest"]
                   else rep["failed"])
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [s for r in reps for s in r["setup_s"]],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics, detail = {}, {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        q1, q3 = quartiles(values)
        metrics[m["name"]] = {"value": median(values), "unit": m["unit"]}
        detail[m["name"]] = {"median": median(values), "q1": q1, "q3": q3,
                             "min": min(values), "samples": len(values),
                             "unit": m["unit"]}
    counters = {k: sorted({r[k] for r in reps}) for k in
                ("trace_events", "trace_dropped", "workers_spawned",
                 "frames_accepted", "shards_reassigned", "duplicate_frames",
                 "corrupt_frames")}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "repetitions": len(reps), "failed_share": failed / attempted,
        "end_to_end": detail, "counters": counters,
        "shape": reference["shape"], "provenance": reference["provenance"],
    }
    return metrics, attempted, failed, record


def measure_per_layer(binary, args, spec, build_root, deadline):
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-seed%d.json"
                              % (args.workload, args.seed))
    argv = [binary, "layers", args.workload, str(args.seed), str(args.seconds),
            spans_path] + (["--tiny"] if args.tiny else [])
    out = run_child(argv, deadline)
    layer_pass = out["pass"]
    with open(spans_path) as f:
        replay_s, layers = attribute(json.load(f))
    produced = dict(layer_pass["metrics"])
    produced["pass.unattributed_share"] = {
        "value": layers.get("perfbench", 0.0) / replay_s, "unit": "ratio",
        "source": "workload"}
    metrics, missing = {}, []
    for m in spec["per_layer"]:
        got = produced.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(missing))
    attempted = operations(layer_pass["shape"])
    failed = attempted if layer_pass["failures"] else 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "failed_share": failed / attempted,
        "replay_s": replay_s,
        "layer_self_share": {k: v / replay_s for k, v in sorted(layers.items())},
        "spans_off_wall_s": layer_pass["spans_off_wall_s"],
        "sources": {k: v["source"] for k, v in sorted(produced.items())},
        "spans_file": os.path.relpath(spans_path),
        "shape": layer_pass["shape"], "provenance": out["provenance"],
    }
    return metrics, attempted, failed, record


def run_one(args, spec):
    binary, build_root = build(os.getcwd())
    deadline = time.monotonic() + CHILD_DEADLINE_S
    if args.trace == 0:
        metrics, attempted, failed, record = measure_end_to_end(
            binary, args, spec, deadline)
    else:
        metrics, attempted, failed, record = measure_per_layer(
            binary, args, spec, build_root, deadline)
    comparable = record["provenance"]["comparable"]
    record["comparable"] = comparable
    record["dropped_workloads"] = []
    correct = failed == 0 and comparable
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("metric %-40s %14.6g %s" % ("failed_share", failed / attempted,
                                      "ratio"))
    if not comparable:
        print("build without NDEBUG: not comparable", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    if not unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful():
        return 1
    binary, _ = build(os.getcwd())
    if subprocess.run([binary, "selftest"]).returncode != 0:
        return 1
    return run_all(argparse.Namespace(seed=1, seconds=1, tiny=True))


def run_all(args):
    """Every workload in both modes, one result line each."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = [sys.executable, os.path.abspath(__file__), "--workload",
                     workload, "--seed", str(args.seed), "--seconds",
                     str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                child.append("--tiny")
            status |= subprocess.run(child).returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shapes instead of the real ones")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
            spec = json.load(f)
        return run_one(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
