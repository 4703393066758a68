"""Repeat the benchmark over seeds, summarise it, and compare two summaries.

    python3 bench/suite.py run --runs 10 --out bench/results/SHA.json
    python3 bench/suite.py compare bench/results/OLD.json bench/results/NEW.json

``run`` starts ``bench/run.py`` untraced once per workload and seed (seeds
0..runs-1; seed 0 also runs the byte-identity checks against
``bench/expected``), then once traced per workload, every run lasting
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
keeps the values, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (interquartile
distance over the median), and prints the spread beside the metric's
bound from ``BENCHMARK.json``.  ``setup_s`` does not depend on the
workload, so its values from all workloads are also pooled into one
summary.  It records the Python and numpy versions, the git SHA, ``nproc``
and the load average at start.

``compare`` prints a per-workload before/after table: each side's median
and quartiles, the change, and whether the change exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, ROOT, environment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values, "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload:<14} seed {seed:>3} trace {trace}  {wall:6.1f} s  correct={result['correct']}"
          f"  failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def cmd_run(args) -> int:
    env = environment()
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    runs = {w: [] for w in workloads}
    for seed in range(args.runs):
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
    traced = {w: run_once(w, 1, seconds, 1) for w in workloads}
    summary = {
        "environment": env, "run_seconds": seconds, "workloads": {},
        "setup_s_pooled": summarise(
            [r["metrics"]["setup_s"]["value"] for w in workloads for r in runs[w]]
        ),
    }
    for w in workloads:
        all_runs = runs[w] + [traced[w]]
        entry = {
            "correct": all(r["correct"] for r in all_runs),
            "attempted": sum(r["attempted"] for r in all_runs),
            "failed": sum(r["failed"] for r in all_runs),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs[w]])
                for name in BOUNDS
            },
        }
        entry["per_layer"] = {
            m["name"]: traced[w]["metrics"][m["name"]]["value"] for m in SPEC["per_layer"]
        }
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print_summary(summary)
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


def print_summary(summary: dict) -> None:
    for w, entry in summary["workloads"].items():
        print(f"\n{w}: correct={entry['correct']} failed {entry['failed']}/{entry['attempted']}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, s in entry["end_to_end"].items():
            spec = BOUNDS[name]
            print(f"  {name:<14} {spec['unit']:<6} {s['median']:>12.6g} {s['q1']:>12.6g}"
                  f" {s['q3']:>12.6g} {s['spread']:>7.3f} {spec['bound']:>6.2f}")
    s = summary["setup_s_pooled"]
    print(f"\nsetup_s pooled over workloads: median {s['median']:.6g}"
          f" [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}")


def cmd_compare(args) -> int:
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    worse = 0
    print(f"before: {before['environment'].get('git_sha')}  after: {after['environment'].get('git_sha')}")
    for w, entry in after["workloads"].items():
        old = before["workloads"].get(w)
        print(f"\n{w}")
        if old is None:
            print("  (no earlier results)")
            continue
        print(f"  {'metric':<14} {'unit':<6} {'before median [q1, q3]':>34}"
              f" {'after median [q1, q3]':>34} {'change':>8} {'bound':>6}")
        for name, new in entry["end_to_end"].items():
            spec = BOUNDS[name]
            prev = old["end_to_end"][name]
            change = new["median"] / prev["median"] - 1.0
            regressed = (change if spec["better"] == "lower" else -change) > spec["bound"]
            worse += regressed
            print(f"  {name:<14} {spec['unit']:<6}"
                  f" {prev['median']:>12.6g} [{prev['q1']:.6g}, {prev['q3']:.6g}]"
                  f" {new['median']:>12.6g} [{new['q1']:.6g}, {new['q3']:.6g}]"
                  f" {change:>+8.1%} {spec['bound']:>6.2f}{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the benchmark over seeds and summarise")
    p_run.add_argument("--runs", type=int, default=10, help="untraced runs (seeds) per workload")
    p_run.add_argument("--out", help="write the summary JSON here")
    p_cmp = sub.add_parser("compare", help="before/after table of two summaries")
    p_cmp.add_argument("before")
    p_cmp.add_argument("after")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
