"""Mutation harness: which tier-1 tests catch which single-token edit of ``src/``.

Run it with no arguments, from any directory::

    python tests/mutants.py

It first runs tier-1 on an unedited copy of the checkout, then once per
mutant in :data:`MUTANTS`: it copies the checkout into a temporary
directory (leaving out ``.git``, ``.hypothesis``, ``.pytest_cache``,
``bench/out`` and bytecode caches), applies that one edit and runs

    PYTHONPATH=src python -m pytest -v -p no:cacheprovider --hypothesis-seed=0 -rfE

there, as many runs at a time as the CPUs this process may use.  ``-v``
prints each test's outcome as it ends, so a run cut off by the timeout
still names the tests that failed before it, and ``-rfE`` names a module
that fails to collect.
``tests/test_mutants.py`` is left out of these runs: it checks that each
mutant applies to the unedited tree, so it fails on every mutated one.

Progress goes to stderr as each run ends.  The JSON kill map goes to
stdout, in the order of :data:`MUTANTS`: for each mutant, the ids of the
tests that failed or errored on it (less any that fail on the unedited
copy), followed by ``"timeout"`` when the run passed :data:`TIMEOUT_S`,
which counts as a kill.  An empty list is a survivor, and
any survivor makes the exit status 1.  Each run takes at least as long as
tier-1, and a failing one longer.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
PYTEST = [
    "-m", "pytest", "-v", "-p", "no:cacheprovider", "--hypothesis-seed=0", "-rfE",
    "--ignore=tests/test_mutants.py",
]
SKIP_NAMES = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
SKIP_PATHS = {ROOT / "bench" / "out"}
#: ``-v``'s line for a test that failed or errored: its id, which may hold
#: spaces, then the outcome and, where the line has room, the progress.
OUTCOME = re.compile(r"(?P<id>\S+::.+) (?:FAILED|ERROR)(?: +\[ *\d+%\])?")
#: ``-rfE``'s line for a module that failed to collect, which ``-v`` never names.
COLLECTION_ERROR = re.compile(r"ERROR (?P<id>[^\s:]+)(?: - .*)?")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qrepeater
    text: str  # occurs exactly once in the file
    replacement: str
    reason: str


#: Bits-only mutants move a result by a few ulps: the 1e-12 oracle checks
#: cannot see them, only the byte-for-byte references can.
MUTANTS = [
    # Kernels
    Mutant("purify-sign", "ops.py",
           "u0 = p2 * (g_same * (a0 * b0 + a2 * b2)", "u0 = p2 * (g_same * (a0 * b0 - a2 * b2)",
           "operator flip in purify_weights"),
    Mutant("purify-success-order", "ops.py",
           "success = 0.0 + u0 + u1 + u2 + u3", "success = 0.0 + u0 + u2 + u1 + u3",
           "bits only: purify's acceptance summed in another order"),
    Mutant("purify-no-clamp", "ops.py",
           "success = 1.0 if 1.0 < success else success",
           "success = 1.0 if 2.0 < success else success",
           "purify's acceptance no longer clamped to 1"),
    Mutant("swap-indices", "ops.py",
           "[p * i2 + floor, p * i3 + floor,", "[p * i3 + floor, p * i2 + floor,",
           "two weight indices swapped in swap_weights"),
    Mutant("swap-measure", "ops.py",
           "return (flip * flip, flip * eta, eta * eta, eta * flip)",
           "return (flip * flip, flip * eta, eta * eta, eta * eta)",
           "swap's phase-bit measurement error dropped"),
    Mutant("xor-order", "ops.py",
           "0.0 + u0 * v2 + u1 * v3 + u2 * v0 + u3 * v1,",
           "0.0 + u0 * v2 + u2 * v0 + u1 * v3 + u3 * v1,",
           "bits only: an XOR-convolution output summed in another order"),
    Mutant("chain-no-normalise", "ops.py",
           "w = normalise(swap_weights(w, pair, noise))", "w = tuple(swap_weights(w, pair, noise))",
           "bits only: a chain's interior swaps keep unnormalised weights"),
    Mutant("chain-interior", "ops.py",
           "for pair in pairs[1:-1]:", "for pair in pairs[2:-1]:",
           "a chain skips its first interior pair"),
    Mutant("normalise-order", "bell.py",
           "total = 0.0 + w0 + w1 + w2 + w3\n    if 0.0 <= w0",
           "total = 0.0 + w0 + w2 + w1 + w3\n    if 0.0 <= w0",
           "bits only: normalise's first sum reordered"),
    Mutant("normalise-once", "bell.py",
           "w0, w1, w2, w3 = w0 / total, w1 / total, w2 / total, w3 / total\n"
           "        total = 0.0 + w0 + w1 + w2 + w3\n        return",
           "w0, w1, w2, w3 = w0 / total, w1 / total, w2 / total, w3 / total\n"
           "        total = 1.0\n        return",
           "bits only: normalise's straight line divides once"),
    Mutant("normalise-clip", "bell.py",
           "if lo < -ATOL:\n        raise ValueError(f\"Bell weights must be nonnegative",
           "if lo < -2 * ATOL:\n        raise ValueError(f\"Bell weights must be nonnegative",
           "normalise accepts larger negative weights"),
    Mutant("normalise-no-clip", "bell.py",
           "if lo < 0.0:", "if lo < -ATOL:",
           "normalise keeps small negative weights"),
    Mutant("normalise-zero-sum", "bell.py",
           "0.0 < total < _INF", "0.0 <= total < _INF",
           "a zero sum takes the straight line"),
    Mutant("from-weights-shape", "bell.py",
           "if w.shape != (4,):", "if w.ndim != 1:",
           "from_weights checks only the rank"),
    # Levels and recipe
    Mutant("nesting-depth", "protocol.py",
           "return span.bit_length() - 1", "return span.bit_length() - 2",
           "off-by-one in nesting_depth"),
    Mutant("pumping-depth", "protocol.py",
           "return m[min(level, len(m) - 1)]", "return m[min(level + 1, len(m) - 1)]",
           "off-by-one in pumping_depth"),
    Mutant("c-parts-order", "protocol.py",
           "[link, helper, link, helper, link]", "[helper, link, link, helper, link]",
           "C's parts reordered: the same race, other states"),
    Mutant("b-parts-order", "protocol.py",
           "return [a_left, link, a_right]", "return [link, a_left, a_right]",
           "B's parts reordered: the same race, other states"),
    Mutant("helper-from-below", "protocol.py",
           "else _helper_pair(two_below, config)", "else _helper_pair(below, config)",
           "helpers built one level too high"),
    Mutant("pair-b-for-a", "protocol.py",
           "return levels[depth - 1].a if depth", "return levels[depth - 1].b if depth",
           "the ladder returns the unpumped B pair"),
    Mutant("round-span-up", "protocol.py",
           "return (1 << math.ceil(span).bit_length()) - 1",
           "return (1 << math.ceil(span + 1).bit_length()) - 1",
           "round_span_up skips a span already schedulable"),
    Mutant("round-span-zero", "protocol.py",
           "if span < 1:", "if span < 0:",
           "round_span_up accepts span 0"),
    Mutant("f0-upsilon", "protocol.py",
           "return from_fidelity(self.f0, self.noise.upsilon)",
           "return from_fidelity(self.f0, 0.0)",
           "a pinned f0 ignores upsilon"),
    Mutant("pump-no-normalise", "protocol.py",
           "weights = normalise(raw)\n        probs.append", "weights = raw\n        probs.append",
           "bits only: pump rounds skip the renormalisation"),
    # Time algebra
    Mutant("fold-no-shift", "protocol.py",
           "return race(pairs, len(parts) - len(pairs), tc)",
           "return race(pairs, len(parts) - len(pairs), 0.0)",
           "Ladder.fold's stages race without their wait tc"),
    Mutant("fold-two-below", "protocol.py",
           "values[idx - 1] if idx > 1 else link", "values[idx - 1] if idx > 0 else link",
           "level 1's helpers race two depth-0 pairs instead of two links"),
    Mutant("fold-helper-wait", "protocol.py",
           "helper = restart(base, base, tc, (level.helper_q,))",
           "helper = restart(base, base, 0.0, (level.helper_q,))",
           "the helper's refining round loses its classical wait"),
    Mutant("time-error-level", "protocol.py",
           "f\"level {len(self._times) - 1}\"", "f\"level {len(self._times)}\"",
           "an overflowing time names the wrong level"),
    Mutant("max-pair-sign", "timing.py",
           "delta = (a.mean - b.mean) / nu", "delta = (b.mean - a.mean) / nu",
           "a sign in max_pair"),
    Mutant("restart-var", "timing.py",
           "n_fail_var = (1.0 - p_full) / p_full**2", "n_fail_var = (1.0 - p_full) / p_full",
           "n_fail_var in restarting_rounds: only variances move"),
    Mutant("restart-overhead", "timing.py",
           "round_mean = round_cost.mean + round_overhead", "round_mean = round_cost.mean",
           "restarting_rounds drops the per-round overhead"),
    Mutant("restart-reach", "timing.py",
           "reach *= q", "reach *= 1.0",
           "restarting_rounds' failure positions ignore earlier acceptances"),
    Mutant("geometric-sign", "timing.py",
           "sign = 1.0 if s % 2 == 1 else -1.0", "sign = 1.0 if s % 2 == 0 else -1.0",
           "inclusion-exclusion sign in max_of_geometric"),
    Mutant("geometric-second", "timing.py",
           "2.0 * qs / (1.0 - qs) ** 2", "2.0 * qs / (1.0 - qs) ** 3",
           "max_of_geometric's second moment: only variances move"),
    # Sampler
    Mutant("maxima-floor", "protocol.py",
           "np.ceil(out, out=out)", "np.floor(out, out=out)",
           "ceil -> floor in the array link maxima"),
    Mutant("link-max-floor", "protocol.py",
           "return math.ceil(max(rng.standard_exponential(racers).tolist()) / rate) * unit",
           "return math.floor(max(rng.standard_exponential(racers).tolist()) / rate) * unit",
           "ceil -> floor in the one-trial link maximum"),
    Mutant("maxima-third-racer", "protocol.py",
           "for j in range(2, racers):", "for j in range(3, racers):",
           "the array link maxima ignore a third racer"),
    Mutant("opening-rows", "protocol.py",
           "out, first = out[:count], out[count:]", "out, first = out[count:], out[:count]",
           "base and round rows swapped in opening: the same draws, other sums"),
    Mutant("opening-pair-rows", "protocol.py",
           "out, first = out + wait, first + wait", "out, first = first + wait, out + wait",
           "base and round swapped in opening's one-trial pair"),
    Mutant("probs-index", "protocol.py",
           "ok = rng.random(attempt.size) < probs[0]", "ok = rng.random(attempt.size) < probs[-1]",
           "a probs index in the array restart"),
    Mutant("probs-index-one", "protocol.py",
           "ok = rng.random(1)[0] < probs[0]", "ok = rng.random(1)[0] < probs[-1]",
           "a probs index in the one-trial restart"),
    Mutant("no-merge", "protocol.py",
           "draw.merge = 0 if pairs else links, wait", "draw.merge = 0, wait",
           "no merged base-and-round draw: the same samples, more generator calls"),
    Mutant("float-path-threshold", "protocol.py",
           "if todo.size == 1:", "if todo.size == 0:",
           "restarts never hand a last trial to floats: the same samples"),
    Mutant("sampler-rate", "protocol.py",
           "rate = -math.log1p(-prob)", "rate = prob",
           "the exponential rate's first-order form"),
    Mutant("std-ddof", "protocol.py",
           "std = float(samples.std(ddof=1)) if", "std = float(samples.std(ddof=0)) if",
           "a population std"),
    # Analysis
    Mutant("fixed-point-steps", "analysis.py",
           "if small_steps >= 2:", "if small_steps >= 1:",
           "the fixed point stops after one small step"),
    Mutant("fixed-point-reset", "analysis.py",
           "if delta <= FIXED_POINT_TOL else 0", "if delta <= FIXED_POINT_TOL else small_steps",
           "small steps need not be consecutive"),
    Mutant("fixed-point-tol", "analysis.py",
           "FIXED_POINT_TOL = 1e-9", "FIXED_POINT_TOL = 1e-8",
           "a looser fixed-point tolerance"),
    Mutant("fixed-point-no-normalise", "analysis.py",
           "weights = normalise(raw)\n        new_value", "weights = raw\n        new_value",
           "bits only: fixed-point rounds skip the renormalisation"),
    Mutant("asymptote-le", "analysis.py",
           "abs(fp.value - previous) <= ASYMPTOTE_TOL", "abs(fp.value - previous) < ASYMPTOTE_TOL",
           "the asymptote's <= made strict"),
    Mutant("asymptote-floor", "analysis.py",
           "if fp.value < USEFUL_FIDELITY_FLOOR:", "if fp.value < 0.6:",
           "the asymptote gives up above fidelity 0.5"),
    Mutant("t0-units", "analysis.py",
           "walk.time(depth).mean / t if", "walk.time(depth).mean * t if",
           "time_in_t0_units multiplies"),
    # Link, config and CLI
    Mutant("default-m", "config.py",
           "m: int = 3", "m: int = 2",
           "one default: the pumping depth"),
    Mutant("headline-default", "cli.py",
           "\"p_em\": 0.08, \"m\": 1", "\"p_em\": 0.08, \"m\": 2",
           "one default: the headline command's m"),
    Mutant("csv-digits", "cli.py",
           "f\"{v:.12g}\"", "f\"{v:.11g}\"",
           "the CSV prints one digit fewer"),
    Mutant("named-parser-stubs", "cli.py",
           "sub.add_parser(name, help=help_text, add_help=False)", "pass",
           "a named build leaves the other commands out of the top-level usage line"),
    Mutant("first-command-word", "cli.py",
           "next((w for w in argv if w in COMMANDS), None)",
           "next((w for w in argv[:1] if w in COMMANDS), None)",
           "main names the build by the first word alone, not the first command word"),
]


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's one edit; ValueError unless its text occurs once."""
    if (count := source.count(mutant.text)) != 1:
        raise ValueError(f"mutant {mutant.name!r}: its text occurs {count} times in {mutant.file}")
    return source.replace(mutant.text, mutant.replacement)


def source_path(root: Path, mutant: Mutant) -> Path:
    return root / "src" / "qrepeater" / mutant.file


def _ignore(directory, names):
    return [n for n in names if n in SKIP_NAMES or Path(directory, n) in SKIP_PATHS]


def failed_tests(output: str) -> list[str]:
    """The ids of the tests that failed or errored in a run's stdout, which
    may stop anywhere, even mid-line."""
    return sorted({
        match["id"] for line in output.splitlines()
        if (match := OUTCOME.fullmatch(line) or COLLECTION_ERROR.fullmatch(line))
    })


def run_suite(mutant: Mutant | None) -> tuple[list[str], bool, float]:
    """Tier-1 on a fresh copy with ``mutant`` applied: the ids of the tests that
    failed or errored, whether the run timed out, and the wall seconds."""
    with tempfile.TemporaryDirectory(prefix="qrepeater-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        if mutant is not None:
            path = source_path(copy, mutant)
            path.write_text(mutate(path.read_text(), mutant))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *PYTEST], cwd=copy, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            # The output so far comes as bytes, even with text=True.
            output = exc.stdout or b""
            if isinstance(output, bytes):
                output = output.decode(errors="replace")
            return failed_tests(output), True, time.perf_counter() - start
        seconds = time.perf_counter() - start
    failed = failed_tests(proc.stdout)
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"pytest exit {proc.returncode}"]
    return failed, False, seconds


def main() -> int:
    for mutant in MUTANTS:  # a stale mutant stops the run before any suite runs
        mutate(source_path(ROOT, mutant).read_text(), mutant)
    baseline, timed_out, seconds = run_suite(None)
    if timed_out:
        sys.exit(f"the unedited suite timed out after {TIMEOUT_S} s")
    print(f"unedited: {len(baseline)} failing, {seconds:.1f} s", file=sys.stderr)
    kills = dict.fromkeys(mutant.name for mutant in MUTANTS)
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        runs = {pool.submit(run_suite, mutant): mutant.name for mutant in MUTANTS}
        for i, run in enumerate(as_completed(runs), start=1):
            failed, timed_out, seconds = run.result()
            name = runs[run]
            kills[name] = [test for test in failed if test not in baseline] + (
                ["timeout"] if timed_out else []
            )
            print(f"[{i}/{len(MUTANTS)}] {name}: {len(kills[name])} killers, {seconds:.1f} s",
                  file=sys.stderr)
    survivors = [name for name, killers in kills.items() if not killers]
    json.dump(
        {"unedited_failures": baseline, "killed": len(kills) - len(survivors),
         "survived": survivors, "kills": kills},
        sys.stdout, indent=1,
    )
    print()
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
