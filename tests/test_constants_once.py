"""Per-round constants computed once, and the straight-line renormalisation.

``NoiseParams`` caches the purify coefficients and the swap constants,
``ProtocolConfig`` the elementary state and ``analysis._Walk`` its
asymptote; ``bell.normalise`` divides with no check when every weight is
nonnegative and the sum is positive and finite.  Each must give, bit for
bit, what the code computing these every call gave; the references below
are that code.  The caches are not fields, so equality, hashing, repr and
the printed config do not see them.  Also pinned here: the one
``int.bit_length`` rule behind ``round_span_up`` and ``nesting_depth``,
and the link maxima's overflow turned into a protocol error.
"""

import contextlib
import io
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from test_analysis import README_AXES, make_config
from test_noisy_ops import EDGE_STATES, bell_states, edge_states, reliabilities

from qrepeater import analysis, cli
from qrepeater.analysis import apply_overrides, asymptotic_fidelity, sweep
from qrepeater.bell import ATOL, normalise
from qrepeater.channel import LinkParams
from qrepeater.ops import (
    MIN_SUCCESS_PROB,
    NoiseParams,
    _xor_convolve,
    purify_weights,
    swap_weights,
)
from qrepeater.protocol import (
    Ladder,
    ProtocolConfig,
    ProtocolError,
    nesting_depth,
    round_span_up,
)


# References: the code as it was before the constants were cached and
# normalise took a straight line.

def reference_normalise(w):
    w0, w1, w2, w3 = w
    lo = min(w0, w1, w2, w3)
    if lo < -ATOL:
        raise ValueError(f"Bell weights must be nonnegative, got {[w0, w1, w2, w3]}")
    total = 0.0 + w0 + w1 + w2 + w3
    if not math.isfinite(total):
        raise ValueError(f"Bell weights and their sum must be finite, got {[w0, w1, w2, w3]}")
    if total <= 0.0:
        raise ValueError("Bell weights sum to zero; state undefined")
    w0, w1, w2, w3 = w0 / total, w1 / total, w2 / total, w3 / total
    if lo < 0.0:
        w0, w1, w2, w3 = (min(max(x, 0.0), 1.0) for x in (w0, w1, w2, w3))
    total = 0.0 + w0 + w1 + w2 + w3
    return w0 / total, w1 / total, w2 / total, w3 / total


def reference_purify_weights(a, b, noise):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p2 = noise.p**2
    eta = noise.eta
    g_same = eta**2 + (1.0 - eta) ** 2
    g_cross = 2.0 * eta * (1.0 - eta)
    floor = (1.0 - p2) / 8.0
    u0 = p2 * (g_same * (a0 * b0 + a2 * b2) + g_cross * (a0 * b3 + a2 * b1)) + floor
    u1 = p2 * (g_same * (a0 * b2 + a2 * b0) + g_cross * (a0 * b1 + a2 * b3)) + floor
    u2 = p2 * (g_same * (a1 * b3 + a3 * b1) + g_cross * (a1 * b0 + a3 * b2)) + floor
    u3 = p2 * (g_same * (a1 * b1 + a3 * b3) + g_cross * (a1 * b2 + a3 * b0)) + floor
    success = min(0.0 + u0 + u1 + u2 + u3, 1.0)
    if success < MIN_SUCCESS_PROB:
        return None, success
    return [u0 / success, u1 / success, u2 / success, u3 / success], success


def reference_swap_weights(a, b, noise):
    eta, p = noise.eta, noise.p
    flip = 1.0 - eta
    errors = _xor_convolve(a, b)
    i0, i1, i2, i3 = _xor_convolve(errors, (flip * flip, flip * eta, eta * eta, eta * flip))
    floor = (1.0 - p) / 4.0
    return [p * i2 + floor, p * i3 + floor, p * i0 + floor, p * i1 + floor]


def reference_nesting_depth(target_span):
    if target_span < 1:
        raise ValueError(f"target_span must be >= 1, got {target_span!r}")
    depth, span = 0, 1
    while span < target_span:
        depth, span = depth + 1, 2 * span + 1
    if span != target_span:
        raise ValueError(
            f"target_span must be of the form 2^k - 1 (1, 3, 7, 15, ...), got {target_span!r}"
        )
    return depth


def reference_round_span_up(span):
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span!r}")
    out = 1
    while out < span:
        out = 2 * out + 1
    return out


def hexes(values):
    """Floats as exact hex strings (tells -0.0 from 0.0, keeps NaN and inf)."""
    return None if values is None else [float(x).hex() for x in values]


def outcome(fn, *args):
    """What a call returned, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


#: Weights at every branch of normalise: zeros of both signs, subnormals,
#: negatives on both sides of -ATOL, infinities and NaN.
SPECIAL_WEIGHTS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300,
    -ATOL, math.nextafter(-ATOL, 0.0), math.nextafter(-ATOL, -1.0),
    -0.5 * ATOL, -2.0 * ATOL, 1.0, 0.25, 1e300, math.inf, -math.inf, math.nan,
]
weights = st.one_of(
    st.sampled_from(SPECIAL_WEIGHTS),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0 * ATOL, max_value=0.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
weight_tuples = st.tuples(weights, weights, weights, weights)
kernel_weights = st.one_of(
    bell_states(), edge_states(), st.sampled_from(EDGE_STATES)
).map(tuple)
noises = st.builds(
    NoiseParams,
    st.one_of(reliabilities, st.sampled_from([1.0, 1e-3, 0.5])),
    st.one_of(reliabilities, st.sampled_from([1.0, 1e-3, 0.5])),
    st.just(0.0),  # builds() fills every NamedTuple field, defaults too
)


def normalise_outcome(fn, w):
    out = outcome(fn, w)
    return out if isinstance(out[0], type) else hexes(out)


class TestStraightLineNormalise:
    @settings(max_examples=500)
    @given(w=weight_tuples)
    def test_matches_reference(self, w):
        assert normalise_outcome(normalise, w) == normalise_outcome(reference_normalise, w)

    @given(w=weight_tuples)
    def test_list_input_matches_reference(self, w):
        assert normalise_outcome(normalise, list(w)) == normalise_outcome(
            reference_normalise, list(w)
        )

    @pytest.mark.parametrize(
        "w",
        [
            (0.0, -0.0, 0.0, 0.0),
            (1.0, -0.5 * ATOL, 0.0, 0.0),
            (1.0, -2.0 * ATOL, 0.0, 0.0),
            (1.0, math.inf, 0.0, 0.0),
            (1e308, 1e308, 0.0, 0.0),
            (math.nan, 1.0, 0.0, 0.0),
            (1.0, math.nan, 0.0, 0.0),
            (5e-324, 0.0, 0.0, 0.0),
        ],
    )
    def test_every_branch(self, w):
        expected = normalise_outcome(reference_normalise, w)
        assert normalise_outcome(normalise, w) == expected


class TestKernelsMatchInlineConstants:
    @given(a=kernel_weights, b=kernel_weights, noise=noises)
    def test_purify_weights(self, a, b, noise):
        raw, success = reference_purify_weights(a, b, noise)
        for _ in range(2):  # the cached constants' first read and a later one
            out, got = purify_weights(a, b, noise)
            assert (hexes(out), got.hex()) == (hexes(raw), success.hex())

    @given(a=kernel_weights, b=kernel_weights, noise=noises)
    def test_swap_weights(self, a, b, noise):
        expected = hexes(reference_swap_weights(a, b, noise))
        for _ in range(2):
            assert hexes(swap_weights(a, b, noise)) == expected

    @given(a=st.tuples(*[st.floats(0.0, 1.0)] * 4), b=st.tuples(*[st.floats(0.0, 1.0)] * 4))
    def test_unnormalised_inputs_and_the_clamp(self, a, b):
        # Weights summing past 1 reach the clamp, which equals min(total, 1.0).
        noise = NoiseParams(1.0, 1.0)
        raw, success = reference_purify_weights(a, b, noise)
        out, got = purify_weights(a, b, noise)
        assert (hexes(out), got.hex()) == (hexes(raw), success.hex())


def snapshot(obj):
    return obj, hash(obj), repr(obj), obj._fields, tuple(obj)


class TestCachesAreNotFields:
    def test_noise_params(self):
        noise = NoiseParams(0.97, 0.98, 0.1)
        before = snapshot(noise)
        noise.purify_coefficients, noise.swap_constants
        after = snapshot(noise)
        assert after == before and after[0] == NoiseParams(0.97, 0.98, 0.1)
        assert hash(noise) == hash(NoiseParams(0.97, 0.98, 0.1))
        assert noise._fields == ("p", "eta", "upsilon")

    @pytest.mark.parametrize("f0", [None, 0.97])
    def test_protocol_config(self, f0):
        cfg = make_config(f0=f0)
        before = snapshot(cfg)
        cfg.elementary_state, cfg.noise.purify_coefficients
        Ladder(cfg).time(cfg.depth)
        assert snapshot(cfg) == before
        assert cfg == make_config(f0=f0) and hash(cfg) == hash(make_config(f0=f0))
        assert cfg._fields == ("link", "noise", "m", "target_span", "f0")

    @pytest.mark.parametrize("command", ["simulate", "headline"])
    def test_print_config(self, command):
        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main([command, *argv]) == 0
            return out.getvalue()

        printed = run("--print-config")
        run()  # reads every cache on the configs it builds
        assert run("--print-config") == printed

    def test_replaced_noise_purifies_with_its_own_p(self):
        noise = NoiseParams(0.97, 0.97)
        a, b = (0.9, 0.05, 0.03, 0.02), (0.85, 0.1, 0.03, 0.02)
        before = purify_weights(a, b, noise)
        changed = noise._replace(p=0.9)
        assert changed.purify_coefficients[0] == 0.9**2
        fresh = NoiseParams(0.9, 0.97)
        assert purify_weights(a, b, changed) == reference_purify_weights(a, b, fresh)
        assert purify_weights(a, b, changed) != before
        assert swap_weights(a, b, changed) == reference_swap_weights(a, b, fresh)
        assert purify_weights(a, b, noise) == before

    def test_replaced_config_has_its_own_elementary_state(self):
        cfg = make_config(f0=0.97)
        assert cfg.elementary_state.w_psi_minus == 0.97
        assert cfg._replace(f0=0.9).elementary_state.w_psi_minus == 0.9
        derived = cfg._replace(f0=None).elementary_state
        assert derived == make_config().elementary_state != cfg.elementary_state

    def test_readme_sweep_finds_each_asymptote_once(self, monkeypatch):
        reads = Counter()

        class CountingWalk(analysis._Walk):
            def fixed_point(self, depth):
                reads[self.config.f0] += 1
                return super().fixed_point(depth)

        base = make_config()
        expected = {
            f0: asymptotic_fidelity(apply_overrides(base, f0=f0)).iterations
            + len(README_AXES["target_span"])
            for f0 in README_AXES["f0"]
        }
        monkeypatch.setattr(analysis, "_Walk", CountingWalk)
        rows = sweep(base, README_AXES)
        assert not any(row["error"] for row in rows)
        # One read per row and one per depth of a single asymptote search.
        assert reads == expected


class TestOneSpanRule:
    def test_results_match_the_loops(self):
        spans = range(1, 2**20 + 1)
        assert [round_span_up(s) for s in spans] == [reference_round_span_up(s) for s in spans]
        assert [outcome(nesting_depth, s) for s in spans] == [
            outcome(reference_nesting_depth, s) for s in spans
        ]

    @pytest.mark.parametrize("span", [0, -1, -7, 2, 4, 5, 6, 10, 2**20, 2**40 + 1])
    def test_messages_match_the_loops(self, span):
        assert outcome(nesting_depth, span) == outcome(reference_nesting_depth, span)
        assert outcome(round_span_up, span) == outcome(reference_round_span_up, span)


class TestLinkTimeOverflow:
    MESSAGE = "expected time overflows a float at the elementary link"

    @pytest.mark.parametrize("command", ["headline", "simulate"])
    def test_command_exits_2_naming_the_link(self, command, capsys):
        assert cli.main([command, "--t0-s", "1e200"]) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_ladder_time_raises_a_protocol_error(self):
        link = LinkParams(t0_s=1e200)
        cfg = ProtocolConfig(link=link, noise=NoiseParams(0.995, 0.995), m=3, target_span=3)
        with pytest.raises(ProtocolError, match=self.MESSAGE):
            Ladder(cfg).time(0)

    def test_sweep_keeps_the_finite_rows(self, capsys):
        spans = ["--axis", "target_span=3,7"]
        assert cli.main(["sweep", "--axis", "t0_s=1e-6", *spans]) == 0
        finite = capsys.readouterr().out.splitlines()
        assert cli.main(["sweep", "--axis", "t0_s=1e-6,1e200", *spans]) == 0
        both = capsys.readouterr().out.splitlines()
        assert both[: len(finite)] == finite
        assert both[len(finite):] == [f"1e+200,{span},,,,,{self.MESSAGE}" for span in (3, 7)]
