#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--workloads mine,serve,churn] [--runs 10]
        [--first-seed 1] [--save FILE] [--against FILE]

Run from the repository root. For each workload it runs run.py --runs
times, each on another seed (first-seed, first-seed + 1, ...), and prints,
for every end-to-end metric of BENCHMARK.json, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound and a third of it. --save writes the values as JSON;
--against compares the medians with a saved set and flags every metric
whose median got worse by more than its bound. Exits 1 if any run failed,
any spread other than setup_s exceeds its bound, or a compared median got
worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    before = None
    if args.against:
        with open(args.against) as f:
            before = json.load(f)

    ok = True
    values = {}
    for w in workloads:
        values[w] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run(w, seed)
            if r is None:
                print("%s seed %d: run failed" % (w, seed))
                ok = False
                continue
            for name in values[w]:
                values[w][name].append(r["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values[w].items())),
                flush=True)

        print("\n%s (%d runs)" % (w, args.runs))
        print("  %-12s %12s %12s %12s %8s %8s %8s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "bound/3",
            "vs saved"))
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdict = "SPREAD>BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                verdict = "spread>bound/3"
            cmp = ""
            if before and w in before and before[w].get(m["name"]):
                old = statistics.median(before[w][m["name"]])
                new = statistics.median(v)
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                cmp = "%+.1f%% worse" % (100 * worse)
                if worse > m["bound"]:
                    cmp += " REGRESSION"
                    ok = False
            print("  %-12s %12.5g %12.5g %12.5g %8.3f %8.3f %8.3f  %s %s" % (
                m["name"], med, q1, q3, spread, m["bound"], m["bound"] / 3,
                cmp, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
