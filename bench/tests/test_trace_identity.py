"""The benchmark's own tests: tracing never changes an answer, and the
metric names the benchmark prints are the ones BENCHMARK.json declares.

Runs with the repository's test command, or alone:
``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Small instances of each workload, so the test takes a couple of seconds.
SMALL = {
    "sweep_readme": lambda seed: workloads.SweepReadme(seed, f0s=(1.0,), spans=(3, 7)),
    "headline_scan": lambda seed: workloads.HeadlineScan(seed, commands=12),
    "mc_span31": lambda seed: workloads.McSpan31(seed, trials=120),
}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 7])
def test_traced_outputs_match_untraced_byte_for_byte(name, seed):
    workload = SMALL[name](seed)
    tracer = Tracer(seed)
    plain, traced, mismatches, _ = run.run_units(workload, seconds=0.0, tracer=tracer)
    assert mismatches == 0
    assert traced[0].output == plain[0].output
    if name != "mc_span31":
        # A 120-trial MC mean is too noisy for the 10% accuracy check, which
        # the full 4,000-trial workload applies.
        assert plain[0].failed == 0 and traced[0].failed == 0, plain[0].notes + traced[0].notes
    calls = {group: c for group, (c, _) in tracer.layer_totals().items()}
    assert calls["ops.purify"] > 0 and calls["bell.from_weights"] > 0
    checks, max_dev = tracer.spot_check()
    assert checks > 0 and max_dev <= run.ORACLE_TOL


def test_tracer_restores_every_namespace():
    import qrepeater.analysis as analysis
    import qrepeater.ops as ops
    import qrepeater.protocol as protocol
    from qrepeater.bell import BellDiagonalState

    before = (ops.purify, analysis.purify, protocol.purify, protocol.np,
              BellDiagonalState.__dict__["from_weights"])
    with Tracer() as tracer:
        assert protocol.purify is analysis.purify is ops.purify
        assert ops.purify is not before[0]
    after = (ops.purify, analysis.purify, protocol.purify, protocol.np,
             BellDiagonalState.__dict__["from_weights"])
    assert all(a is b for a, b in zip(before, after))
    assert tracer.layer_totals()["ops.purify"] == (0, 0.0)


def test_default_seed_sweep_is_the_readme_command():
    workload = workloads.SweepReadme(workloads.DEFAULT_SEED)
    assert workload.inputs(0) == workloads.README_ARGV
    assert workload.inputs(1) != workloads.README_ARGV


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
