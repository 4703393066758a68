"""qrepeater benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload sweep_readme --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload repeats closed-loop units until ``--seconds`` is
spent, checks every output, prints each metric by name with its unit and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` follows each
untraced unit with a traced unit on the same inputs, requires the two
outputs to match byte for byte, and reports the per-layer metrics of the
traced units.  A copy of the result, with the environment, goes to
``bench/out/``.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # The process starts no threads of its own, so keep numpy's BLAS from
    # starting a pool; this must precede the first numpy import.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedClock  # noqa: E402
from tracer import GROUPS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep_readme", "headline_scan", "mc_span31")

#: Pairs of fresh interpreters started per run to time set-up.
SETUP_PAIRS = 9
#: Times importing qrepeater and building the CLI parser, from inside the
#: child, so that interpreter start-up is left out.
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qrepeater\n"
    "from qrepeater.cli import build_parser\n"
    "build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
#: The yardstick for set-up: importing a fixed set of standard-library
#: modules in a fresh interpreter, which neither the program nor its
#: dependencies can change.  A slow phase of a shared machine slows both
#: children alike, so their ratio holds where either time alone does not.
YARDSTICK_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, csv, decimal, email.parser, fractions, http.client, json, logging, unittest, xml.dom.minidom\n"
    "print(time.perf_counter() - start)\n"
)
#: Yardstick time that defines reference speed for set-up (its time on an
#: uncontended 2.0 GHz Xeon vCPU).
REFERENCE_YARDSTICK_S = 0.05

END_TO_END = {
    "run_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


#: Per-layer metrics of the traced units, each averaged per unit.  Layer
#: ``calls`` and ``self_s`` come from spans; the rest from call results.
PER_LAYER = {
    **{f"{group}.{kind}": unit for group in GROUPS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "ops.purify.accept_ratio": "1",
    "protocol.level_reuse_ratio": "1",
    "analysis.fixed_point_at_distance.iterations": "count",
    "analysis.asymptotic_fidelity.levels": "count",
    "analysis.nonconverged": "count",
    "sampler.rng_draws": "count",
    "sampler.draws_per_trial": "count",
    "exact.spot_checks": "count",
    "exact.max_dev": "1",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
#: Largest accepted deviation of a sampled kernel call from the 16x16 oracle.
ORACLE_TOL = 1e-12


def load_program():
    """Import qrepeater from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "qrepeater" / "__init__.py").is_file():
        raise SystemExit(f"no qrepeater sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qrepeater

    if Path(qrepeater.__file__).resolve().parent != (SRC / "qrepeater").resolve():
        raise SystemExit(f"imported qrepeater from {qrepeater.__file__}, not from {SRC}")


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
        "machine": platform.machine(),
    }


def _child_seconds(code: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup() -> tuple[float, float]:
    """Time to import qrepeater and build the CLI parser in a fresh
    interpreter: (reference-speed s, wall s).  Each set-up child is paired
    with a yardstick child started just before it; the reference-speed time
    is the median set-up/yardstick ratio times REFERENCE_YARDSTICK_S."""
    ratios, wall = [], []
    for _ in range(SETUP_PAIRS):
        yardstick = _child_seconds(YARDSTICK_CODE)
        setup = _child_seconds(SETUP_CODE)
        ratios.append(setup / yardstick)
        wall.append(setup)
    return REFERENCE_YARDSTICK_S * statistics.median(ratios), statistics.median(wall)


def run_units(workload, seconds: float, tracer=None):
    """Closed loop on a SpeedClock: run units until the next one would
    overrun ``seconds`` of wall time.  With a tracer, each unit runs
    untraced and then traced on the same inputs.  Returns (untraced units,
    traced units, output mismatches, wall seconds of the untraced units)."""
    plain, traced, mismatches, walls = [], [], 0, []
    start = time.perf_counter()
    unit = 0
    with SpeedClock() as clock:
        while True:
            inputs = workload.inputs(unit)
            wall = time.perf_counter()
            plain.append(workload.run(inputs, clock.now))
            walls.append(time.perf_counter() - wall)
            if tracer is not None:
                tracer.op, tracer.clock = unit, clock.now
                with tracer:
                    traced.append(workload.run(inputs, clock.now))
                mismatches += traced[-1].output != plain[-1].output
            unit += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / unit > seconds:
                return plain, traced, mismatches, walls


def end_to_end_metrics(units, setup_s: float) -> dict[str, float]:
    latencies = sorted(t for u in units for t in u.op_seconds)
    return {
        "run_s": statistics.median(u.seconds for u in units),
        "ops_per_s": sum(u.ops for u in units) / sum(u.seconds for u in units),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1]
        if len(latencies) > 1 else 1e3 * latencies[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, plain, traced) -> dict[str, float]:
    n = len(traced)
    out = {}
    totals = tracer.layer_totals()
    for group, (calls, self_s) in totals.items():
        out[f"{group}.calls"] = calls / n
        out[f"{group}.self_s"] = self_s / n
    purify_calls = len(tracer.purify_success)
    b_calls = totals["protocol.build_b_pair"][0]
    checks, max_dev = tracer.spot_check()
    out.update({
        "ops.purify.accept_ratio": sum(tracer.purify_success) / purify_calls if purify_calls else 0.0,
        "protocol.level_reuse_ratio": tracer.distinct_levels() / b_calls if b_calls else 0.0,
        "analysis.fixed_point_at_distance.iterations": tracer.fp_iterations / n,
        "analysis.asymptotic_fidelity.levels": tracer.asym_levels / n,
        "analysis.nonconverged": tracer.nonconverged / n,
        "sampler.rng_draws": tracer.rng_draws / n,
        "sampler.draws_per_trial": tracer.rng_draws / tracer.mc_trials if tracer.mc_trials else 0.0,
        "exact.spot_checks": checks,
        "exact.max_dev": max_dev,
        "trace.run_s": statistics.median(u.seconds for u in traced),
        "trace.overhead_s": statistics.median(u.seconds for u in traced)
        - statistics.median(u.seconds for u in plain),
    })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    env = environment()
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(args.seed) if args.trace else None
    plain, traced, mismatches, walls = run_units(workload, args.seconds, tracer)
    units = plain + traced

    if tracer is None:
        metrics, units_of = end_to_end_metrics(plain, setup_s), END_TO_END
    else:
        metrics, units_of = per_layer_metrics(tracer, plain, traced), PER_LAYER
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(
            OUT / f"spans-{args.workload}.npz", names=np.array(tracer.names),
            **tracer.span_arrays(),
        )
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    notes = [note for u in units for note in u.notes]
    if mismatches:
        notes.append(f"{mismatches} traced unit(s) differ from their untraced run")
    if tracer is not None and metrics["exact.max_dev"] > ORACLE_TOL:
        notes.append(f"kernel deviates from the exact oracle by {metrics['exact.max_dev']:.3e}")
    correct = failed == 0 and not mismatches and (
        tracer is None or metrics["exact.max_dev"] <= ORACLE_TOL
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(plain)} untraced, {len(traced)} traced")
    print(f"  {'fail_ratio':<46} {failed / attempted:>16.6g} 1  ({failed}/{attempted} ops)")
    print(f"  {'wall run_s (uncorrected)':<46} {statistics.median(walls):>16.6g} s")
    if setup_wall_s is not None:
        print(f"  {'wall setup_s (uncorrected)':<46} {setup_wall_s:>16.6g} s")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {units_of[name]}")
    for note in notes[:20]:
        print(f"  check: {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "notes": notes,
        "unit_seconds": [u.seconds for u in plain],
        "unit_wall_seconds": walls,
        "setup_wall_s": setup_wall_s,
        "traced_unit_seconds": [u.seconds for u in traced],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
