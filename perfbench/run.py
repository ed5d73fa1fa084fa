#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload {mine,serve,churn} --seed N \
        [--seconds S] [--trace 0|1]

Run from the repository root. It builds perfbench/ (and with it the gpar
library from src/) under .bench_build/, generates the workload's input files
for the seed, runs each of the workload's instances in a process of its own
for an equal share of S seconds, merges their results (mine: the median
over the instances; serve and churn: the mean, peak_rss_mb the maximum) and
prints the metrics. mine and churn run their instances in two passes, one
after the other, and take each instance's fastest pass. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 they are its per-layer metrics: the run is made twice, half
the window each, untraced then traced, on the first TRACED_INSTANCES
instances only, and `trace.overhead.<metric>` is the traced minus the
untraced end-to-end number. A metric of a layer the workload does not use
reads 0.

The exit code is non-zero, and no JSON is printed, when the build, the
input generation or the run fails; a failed correctness check prints the
JSON with "correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# mine's instances, run twice, would not fit the time limit of a run.
TRACED_INSTANCES = 4
# How often an untraced run runs each instance. The timings follow the
# shared host, which slows down for seconds to minutes at a time; a second
# pass half a run later gives every instance a second chance at a quiet
# host. mine's passes must also mine the same top-k.
PASSES = {"mine": 2, "churn": 2}

# What each workload's end-to-end slots measure, under the names the
# README uses: (name, unit, transform of the slot value).
SLOT_MEANING = {
    "mine": {
        "main_ms": ("mine_s", "s", lambda v: v / 1e3),
        "second_ms": ("identify_s", "s", lambda v: v / 1e3),
        "third_ms": ("job_s", "s", lambda v: v / 1e3),
    },
    "serve": {
        "main_ms": ("query_p50_ms", "ms", lambda v: v),
        "second_ms": ("query_p90_ms", "ms", lambda v: v),
        "third_ms": ("query_qps", "req/s", lambda v: 1e3 / v if v else 0.0),
    },
    "churn": {
        "main_ms": ("delta_p50_ms", "ms", lambda v: v),
        "second_ms": ("query_p50_ms", "ms", lambda v: v),
        "third_ms": ("recover_s", "s", lambda v: v / 1e3),
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if cfg.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    b = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=False)
    if b.returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(bdir, "perfbench")


def call(argv, deadline):
    """Runs one perfbench process to completion (killed at the deadline)."""
    try:
        return subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(argv))
        return -1


def instances_of(workdir):
    with open(os.path.join(workdir, "params.txt")) as f:
        for line in f:
            key, _, value = line.partition(" ")
            if key == "instances":
                return int(value)
    raise ValueError("params.txt names no instance count")


def merge(workload, parts):
    """One result from the instances' results: counts and failed checks add
    up, notes keep their instance as a prefix, span counts and self times
    add up, and every other metric is the median over the instances on
    mine (an instance's cost follows its mined rules, with outliers) or the
    mean on the others (peak_rss_mb: the maximum)."""
    out = {"correct": all(p["correct"] for p in parts),
           "attempted": sum(p["attempted"] for p in parts),
           "failed": sum(p["failed"] for p in parts),
           "exit": next((p["exit"] for p in parts if p["exit"] != 0), 0),
           "errors": [e for p in parts for e in p.get("errors", [])],
           "notes": {"%d.%s" % (i, k): v for i, p in enumerate(parts)
                     for k, v in p.get("notes", {}).items()},
           "metrics": {}}
    for name in parts[0]["metrics"]:
        values = [p["metrics"][name]["value"] for p in parts]
        if name == "trace.spans" or name.endswith(".self_s"):
            value = sum(values)
        elif workload == "mine":
            value = statistics.median(values)
        elif name == "peak_rss_mb":
            value = max(values)
        else:
            value = statistics.mean(values)
        out["metrics"][name] = {"value": value,
                                "unit": parts[0]["metrics"][name]["unit"]}
    return out


def fastest(passes):
    """One instance's result from its passes: the first pass's, with every
    metric at its best over the passes (peak_rss_mb: the largest) and the
    counts of all passes. Passes that report a mined top-k must agree."""
    out = dict(passes[0])
    out["attempted"] = sum(p["attempted"] for p in passes)
    out["failed"] = sum(p["failed"] for p in passes)
    out["errors"] = [e for p in passes for e in p.get("errors", [])]
    topk = [p.get("notes", {}).get("topk") for p in passes]
    if any(t != topk[0] for t in topk):
        out["correct"] = False
        out["errors"].append("the passes mined different top-k rules")
    out["metrics"] = {}
    for name, m in passes[0]["metrics"].items():
        values = [p["metrics"][name]["value"] for p in passes]
        out["metrics"][name] = {
            "value": max(values) if name == "peak_rss_mb" else min(values),
            "unit": m["unit"]}
    return out


def run_once(binary, workload, workdir, seconds, trace, tag, deadline,
             limit=None, passes=1):
    """Runs the workload's instances (the first `limit` of them) in turn,
    `passes` times over, each in its own process for an equal share of
    `seconds`; returns the merged result."""
    n = min(instances_of(workdir), limit or sys.maxsize)
    runs = [[] for _ in range(n)]
    for p in range(passes):
        for i in range(n):
            out = os.path.join(workdir, "result-%s-%d-%d.json" % (tag, i, p))
            rc = call([binary, "run", "--dir", workdir, "--instance", str(i),
                       "--seconds", repr(seconds / (n * passes)),
                       "--trace", "1" if trace else "0", "--out", out],
                      deadline)
            if not os.path.exists(out):
                raise RuntimeError("instance %d produced no result (exit %d)"
                                   % (i, rc))
            with open(out) as f:
                part = json.load(f)
            part["exit"] = rc
            if rc != 0:
                return merge(workload, [part])
            runs[i].append(part)
    return merge(workload, [fastest(r) for r in runs])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SLOT_MEANING))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or float(spec["run_seconds"])
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = spec["per_layer"]

    try:
        binary = build()
        workdir = os.path.join(build_dir(), "work",
                               "%s-%d" % (args.workload, args.seed))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if call([binary, "gen", "--workload", args.workload, "--seed",
                 str(args.seed), "--out", workdir], deadline) != 0:
            raise RuntimeError("input generation failed")
        if args.trace:
            plain = run_once(binary, args.workload, workdir, seconds / 2,
                             False, "plain", deadline, TRACED_INSTANCES)
            traced = run_once(binary, args.workload, workdir, seconds / 2,
                              True, "traced", deadline, TRACED_INSTANCES)
            runs = [plain, traced]
        else:
            runs = [run_once(binary, args.workload, workdir, seconds, False,
                             "untraced", deadline,
                             passes=PASSES.get(args.workload, 1))]
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    attempted = max(1, sum(r["attempted"] for r in runs))
    failed = sum(r["failed"] for r in runs)
    if not all(r["correct"] and r["exit"] == 0 for r in runs):
        for r in runs:
            for e in r.get("errors", []) or ["exit %d" % r["exit"]]:
                log("correctness: " + e)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    last = runs[-1]
    metrics = {}
    if args.trace:
        got = last["metrics"]
        for m in layers:
            name = m["name"]
            if name.startswith("trace.overhead."):
                base = name[len("trace.overhead."):]
                value = got[base]["value"] - runs[0]["metrics"][base]["value"]
            else:
                value = got.get(name, {}).get("value", 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in last["metrics"]:
                log("perfbench: missing metric %s" % m["name"])
                return 1
            metrics[m["name"]] = {"value": last["metrics"][m["name"]]["value"],
                                  "unit": m["unit"]}

    meaning = SLOT_MEANING[args.workload]
    print("workload %s, seed %d, %.0f s%s" % (
        args.workload, args.seed, seconds, ", traced" if args.trace else ""))
    for name in e2e:
        v = runs[0]["metrics"][name]["value"]
        if name in meaning:
            alias, unit, f = meaning[name]
            print("  %-14s %14.6f %-6s (%s %.6f %s; %s)" % (
                name, v, runs[0]["metrics"][name]["unit"], alias, f(v), unit,
                runs[0]["notes"].get("0." + name, "")))
        else:
            print("  %-14s %14.6f %s" % (name, v, runs[0]["metrics"][name]["unit"]))
    print("  %-14s %14.6f ratio (%d of %d operations)" % (
        "failed_ratio", failed / attempted, failed, attempted))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
