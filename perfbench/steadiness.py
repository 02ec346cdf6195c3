#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarize every metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads decay,tree,sessions] [--seconds S] [--trace 0|1]
        [--out results.json]

Run from the root of a source checkout. Each run is
`python3 perfbench/run.py --workload W --seed K --seconds S --trace T`
with its own seed. For every metric the report prints the median, the
first and third quartiles (Python's statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median. An end-to-end metric is flagged when its
spread exceeds its bound in BENCHMARK.json, and marked "tight" when the
spread is under a third of the bound. setup_s is reported but, like the
per-layer metrics, has no spread gate. A run that is not correct, or that
failed requests, is reported and counts as a failure of the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s (exit %d)" % (" ".join(command),
                                                        done.returncode))
    result = json.loads(lines[-1])
    # The benchmark's own sample-count lines, for the report.
    notes = [l for l in lines if l.startswith(("pauses ", "ladder:"))]
    return result, wall, notes


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall, notes = run_once(workload, seed, args.seconds,
                                           args.trace)
            walls.append(wall)
            status = "ok"
            if not result["correct"] or result["failed"]:
                status = "NOT CORRECT (failed %d)" % result["failed"]
                ok = False
            print("%s seed %d: %.1f s, %s; %s" % (workload, seed, wall, status,
                                                 " | ".join(notes)))
            sys.stdout.flush()
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n%s: %d runs, wall %.1f..%.1f s" % (workload, args.runs,
                                                     min(walls), max(walls)))
        print("  %-36s %14s %14s %14s %8s  %s" % ("metric", "median", "q1",
                                                  "q3", "spread", "bound"))
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    verdict = "OUTSIDE BOUND"
                    ok = False
                elif spread < bound / 3:
                    verdict = "tight"
                else:
                    verdict = "within bound"
            print("  %-36s %14.6g %14.6g %14.6g %8.4f  %s %s" % (
                name, median, q1, q3, spread,
                "" if bound is None else bound, verdict))
            summary[name] = {"values": vals, "median": median, "q1": q1,
                             "q3": q3, "spread": spread}
        report[workload] = summary
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
