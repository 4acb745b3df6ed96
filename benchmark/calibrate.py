#!/usr/bin/env python3
"""Measure how steady the benchmark is, the way the driver does.

Runs every workload of ../BENCHMARK.json `--runs` times, each time with
another seed, `--sets` times over, and prints for each end-to-end metric and
set its min / median / max and its spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median.
Beside them: by how much the last set's median is worse than the first's, the
metric's bound, and a verdict. One traced run per workload and set adds the
tracing overhead. CALIBRATION.md is this script's output plus the host it
ran on.

    python3 benchmark/calibrate.py [--runs 10] [--sets 2] [--seed0 100] [--workload NAME ...]

It runs the `command` of BENCHMARK.json from the root of the checkout.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]

    # sets[s][workload][metric] = values; one set after the other, as the
    # driver takes them.
    sets, overheads, attempted = [], [], 0
    for s in range(args.sets):
        values = {n: {m["name"]: [] for m in SPEC["end_to_end"]} for n in names}
        for name in names:
            walls = []
            for i in range(args.runs):
                result, took = run(name, args.seed0 + s * args.runs + i, 0)
                walls.append(took)
                attempted += result["attempted"]
                for metric, v in result["metrics"].items():
                    values[name][metric].append(v["value"])
            traced, took = run(name, args.seed0, 1)
            attempted += traced["attempted"]
            overheads.append(
                (s + 1, name, traced["metrics"]["trace_overhead_share"]["value"],
                 statistics.median(walls), max(walls), took)
            )
            print(f"set {s + 1}: {name} done", file=sys.stderr, flush=True)
        sets.append(values)

    per_set = " | ".join(f"set {s + 1} min / median / max | spread" for s in range(args.sets))
    print(f"| workload | metric | unit | {per_set} | last median worse by | bound | verdict |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|---|---|")
    for name in names:
        for m in SPEC["end_to_end"]:
            cells, spreads = [], []
            for values in sets:
                v = values[name][m["name"]]
                spreads.append(spread(v))
                cells.append(
                    f"{min(v):.6g} / {statistics.median(v):.6g} / {max(v):.6g} | {spreads[-1]:.2%}"
                )
            first = statistics.median(sets[0][name][m["name"]])
            last = statistics.median(sets[-1][name][m["name"]])
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            gated = spreads if m["name"] != "setup_s" else [0.0]
            if max(gated) >= m["bound"] or worse > m["bound"]:
                verdict = "FLAPS"
            elif max(gated) >= m["bound"] / 3:
                verdict = "within bound"
            else:
                verdict = "steady"
            print(
                f"| {name} | {m['name']} | {m['unit']} | {' | '.join(cells)} | "
                f"{worse:+.1%} | {m['bound']:.0%} | {verdict} |"
            )
    print()
    print(f"{attempted} operations attempted, 0 failed.")
    print()
    print("| set | workload | trace_overhead_share | untraced run s, median / max | traced run s |")
    print("|---|---|---|---|---|")
    for s, name, share, plain, slowest, traced in overheads:
        print(f"| {s} | {name} | {share:+.2%} | {plain:.1f} / {slowest:.1f} | {traced:.1f} |")


if __name__ == "__main__":
    main()
