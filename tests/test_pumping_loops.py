"""The loops that keep a pair as plain float weights between rounds:
``protocol.pump``, ``analysis._pumped_fixed_point`` and the interior swaps
of ``ops.connect_chain``.

Each must give, bit for bit, what iterating the public ``purify`` /
``swap`` gives (a state built and validated every round), and agree with
the 16x16 oracle iterated the same way.  The README sweep's memory at
fixed work is bounded here too.
"""

import contextlib
import functools
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_noisy_ops import EDGE_STATES, bell_states, bits, edge_states, reliabilities

from qrepeater import cli
from qrepeater.analysis import (
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    FixedPointResult,
    _pumped_fixed_point,
)
from qrepeater.bell import BellDiagonalState, fidelity, from_fidelity
from qrepeater.channel import LinkParams
from qrepeater.exact import purify_oracle, swap_oracle
from qrepeater.ops import NoiseParams, connect_chain, purify, swap
from qrepeater.protocol import Level, ProtocolConfig, ProtocolError, pump

ORACLE_TOL = 1e-12

loop_states = st.one_of(bell_states(), edge_states(), st.sampled_from(EDGE_STATES))
#: Under perfect operations a pure Psi- pumped with pure Psi+ never accepts.
PSI_MINUS, PSI_PLUS = BellDiagonalState(1.0, 0.0, 0.0, 0.0), BellDiagonalState(0.0, 1.0, 0.0, 0.0)


def config_for(noise, span=3):
    return ProtocolConfig(link=LinkParams(tc_s=70e-6), noise=noise, m=1, target_span=span)


# References: the loops as they were written before they kept plain floats,
# iterating the public kernels and building a state every round.

def reference_pump(b, c, m, config, level=None):
    where = f" at level {level}" if level is not None else ""
    state = b
    probs = []
    for step in range(m):
        outcome = purify(state, c, config.noise)
        if not outcome.purifiable:
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{where}: acceptance"
                f" probability {outcome.success_prob:.3e}"
            )
        state = outcome.state
        probs.append(outcome.success_prob)
    return state, tuple(probs)


def reference_fixed_point(level, noise):
    state = level.b
    value = fidelity(state)
    small_steps = 0
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        outcome = purify(state, level.c, noise)
        if not outcome.purifiable:
            return FixedPointResult(value, iteration, False)
        state = outcome.state
        new_value = fidelity(state)
        delta = abs(new_value - value)
        value = new_value
        small_steps = small_steps + 1 if delta <= FIXED_POINT_TOL else 0
        if small_steps >= 2:
            return FixedPointResult(value, iteration, True)
    return FixedPointResult(value, FIXED_POINT_MAX_ITER, False)


def reference_chain(pairs, noise):
    pairs = list(pairs)
    if not pairs:
        raise ValueError("connect_chain requires at least one pair")
    return functools.reduce(lambda acc, nxt: swap(acc, nxt, noise), pairs)


def outcome_of(fn, *args):
    """What a call returned, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def pump_outcome(b, c, m, config, level):
    out = outcome_of(pump, b, c, m, config, level)
    if isinstance(out[0], type):
        return out
    a, probs = out
    assert type(a) is BellDiagonalState
    return bits(a), [q.hex() for q in probs]


def reference_pump_outcome(b, c, m, config, level):
    out = outcome_of(reference_pump, b, c, m, config, level)
    if isinstance(out[0], type):
        return out
    state, probs = out
    return bits(state), [q.hex() for q in probs]


def fixed_point_outcome(fn, level, noise):
    out = outcome_of(fn, level, noise)
    if isinstance(out, tuple):
        return out
    return out.value.hex(), out.iterations, out.converged


def chain_outcome(fn, pairs, noise):
    out = outcome_of(fn, pairs, noise)
    return out if isinstance(out, tuple) else bits(out)


class TestLoopsMatchPublicKernels:
    @given(
        b=loop_states, c=loop_states, m=st.integers(0, 6),
        p=reliabilities, eta=reliabilities, level=st.sampled_from([None, 0, 3]),
    )
    def test_pump(self, b, c, m, p, eta, level):
        cfg = config_for(NoiseParams(p, eta))
        expected = reference_pump_outcome(b, c, m, cfg, level)
        assert pump_outcome(b, c, m, cfg, level) == expected

    @pytest.mark.parametrize("level", [None, 2])
    def test_pump_unpurifiable_step_message(self, level):
        # Pure Psi- kept, pure Psi+ fodder, perfect operations: the first
        # round never accepts; at p < 1 it does, and later rounds run.
        b, c = PSI_MINUS, PSI_PLUS
        cfg = config_for(NoiseParams(1.0, 1.0))
        expected = reference_pump_outcome(b, c, 3, cfg, level)
        assert expected[0] is ProtocolError
        assert "unpurifiable pump step 1" in expected[1]
        assert pump_outcome(b, c, 3, cfg, level) == expected
        noisy = config_for(NoiseParams(0.9, 1.0))
        assert pump_outcome(b, c, 3, noisy, level) == reference_pump_outcome(
            b, c, 3, noisy, level
        )

    @settings(deadline=None)  # a loop may run all FIXED_POINT_MAX_ITER rounds
    @given(b=loop_states, c=loop_states, p=reliabilities, eta=reliabilities)
    def test_fixed_point(self, b, c, p, eta):
        level = Level(b, c, (), None, b)
        noise = NoiseParams(p, eta)
        expected = fixed_point_outcome(reference_fixed_point, level, noise)
        assert fixed_point_outcome(_pumped_fixed_point, level, noise) == expected

    @pytest.mark.parametrize("p", [1.0, 0.995])
    def test_fixed_point_near_singlet(self, p):
        # States near the operating point, where the loop runs its longest.
        noise = NoiseParams(p, p)
        for f_b, f_c in [(0.95, 0.9), (0.99, 0.97), (0.8, 0.75)]:
            b = from_fidelity(f_b, 0.2)
            level = Level(b, from_fidelity(f_c, 0.1), (), None, b)
            expected = fixed_point_outcome(reference_fixed_point, level, noise)
            assert expected[2] and expected[1] > 2
            assert fixed_point_outcome(_pumped_fixed_point, level, noise) == expected

    def test_fixed_point_first_round_unpurifiable(self):
        level = Level(PSI_MINUS, PSI_PLUS, (), None, PSI_MINUS)
        noise = NoiseParams(1.0, 1.0)
        expected = fixed_point_outcome(reference_fixed_point, level, noise)
        assert expected == ((1.0).hex(), 1, False)
        assert fixed_point_outcome(_pumped_fixed_point, level, noise) == expected

    @given(
        pairs=st.lists(loop_states, min_size=1, max_size=6),
        p=reliabilities, eta=reliabilities,
    )
    def test_connect_chain(self, pairs, p, eta):
        noise = NoiseParams(p, eta)
        expected = chain_outcome(reference_chain, pairs, noise)
        assert chain_outcome(connect_chain, pairs, noise) == expected
        if len(pairs) == 1:
            assert connect_chain(pairs, noise) is pairs[0]

    def test_empty_chain(self):
        noise = NoiseParams(0.99, 0.99)
        expected = outcome_of(reference_chain, [], noise)
        assert outcome_of(connect_chain, [], noise) == expected
        assert outcome_of(connect_chain, iter(()), noise) == expected


NOISE_GRID = [
    NoiseParams(p, p, upsilon) for p in (0.97, 0.995, 1.0) for upsilon in (0.0, 0.25, 0.5)
]


def max_dev(state, ref):
    return float(np.max(np.abs(state.weights - ref.weights)))


@pytest.mark.parametrize("noise", NOISE_GRID, ids=lambda n: f"p_eta={n.p}-upsilon={n.upsilon}")
class TestLoopsMatchOracle:
    """The loops' plain-float rounds against the 16x16 density-matrix
    oracle, iterated round by round."""

    def test_pump(self, noise):
        b, c = from_fidelity(0.93, noise.upsilon), from_fidelity(0.88, noise.upsilon)
        cfg = config_for(noise)
        ref, ref_probs = b, []
        for m in range(1, 6):
            oracle = purify_oracle(ref, c, noise)
            ref = oracle.state
            ref_probs.append(oracle.success_prob)
            a, probs = pump(b, c, m, cfg)
            assert max_dev(a, ref) <= ORACLE_TOL
            assert np.max(np.abs(np.subtract(probs, ref_probs))) <= ORACLE_TOL

    def test_connect_chain(self, noise):
        pairs = [from_fidelity(f, noise.upsilon) for f in (0.97, 0.9, 0.95, 0.92, 0.99)]
        ref = functools.reduce(lambda acc, nxt: swap_oracle(acc, nxt, noise), pairs)
        assert max_dev(connect_chain(pairs, noise), ref) <= ORACLE_TOL


README_ARGV = [
    "sweep",
    "--axis", "f0=0.96,0.97,0.98,0.99,1.0",
    "--axis", "target_span=3,7,15,31,63,127",
    "--tc-s", "70e-6",
]
#: tracemalloc peak of one README sweep through ``cli.main``: 192 KB at
#: 1ebfb3a, before the pumping loops kept plain floats (Python 3.11), plus 25%.
README_SWEEP_PEAK_BOUND = int(192_000 * 1.25)


def test_readme_sweep_memory_at_fixed_work():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(README_ARGV) == 0  # imports and first-call caches
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(README_ARGV) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.getvalue().count("\n") > 30
    assert peak <= README_SWEEP_PEAK_BOUND, peak
