"""Fixed points, the distance asymptote and parameter sweeps."""

import contextlib
import csv
import gc
import io
import itertools
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from qrepeater import analysis, protocol
from qrepeater.analysis import (
    ASYMPTOTE_MAX_LEVELS,
    ASYMPTOTE_TOL,
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    USEFUL_FIDELITY_FLOOR,
    FixedPointResult,
    _pumped_fixed_point,
    apply_overrides,
    asymptotic_fidelity,
    fixed_point_at_distance,
    sweep,
    table,
)
from qrepeater.bell import BellDiagonalState, fidelity, from_fidelity
from qrepeater.channel import LinkParams, expected_link_time
from qrepeater.cli import main
from qrepeater.config import RunConfig, load_config
from qrepeater.ops import NoiseParams, connect_chain, purify, swap
from qrepeater.protocol import (
    Ladder,
    Level,
    ProtocolConfig,
    ProtocolError,
    build_b_pair,
    nesting_depth,
    run_protocol,
)

#: Fixed points of adjacent nesting levels wobble by a few 1e-4 because
#: the pumping map alternates error types between rounds; monotonicity
#: holds beyond that parity effect.
PARITY_SLACK = 1e-3

#: tracemalloc peak of one README sweep through ``cli.main``: 192 KB at
#: 1ebfb3a, before the pumping loops kept plain floats (Python 3.11), plus 25%.
README_SWEEP_PEAK_BOUND = int(192_000 * 1.25)


def make_config(f0=None, p=0.995, eta=0.995, upsilon=0.0, m=3, span=15):
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.2, p_em=0.05, eps_local=1.0,
        t0_s=1e-6, tc_s=70e-6,
    )
    return ProtocolConfig(
        link=link, noise=NoiseParams(p, eta, upsilon), m=m, target_span=span, f0=f0
    )


def perfect_config(span=15, m=3):
    link = LinkParams(l0_km=20.0, attenuation_db_per_km=0.0, p_em=0.1, eps_local=1.0)
    return ProtocolConfig(
        link=link, noise=NoiseParams(1.0, 1.0, 0.0), m=m, target_span=span
    )


class TestFixedPointAtDistance:
    def test_error_free_limit(self):
        fp = fixed_point_at_distance(perfect_config(), 15)
        assert fp.converged
        assert fp.value == pytest.approx(1.0, abs=1e-9)

    def test_phase_only_pumping_map_converges_to_unity(self):
        # the raw pumping map with fixed fodder fidelity 0.9 and perfect
        # operations has its attracting fixed point at 1
        fodder = from_fidelity(0.9, 0.0)
        state = fodder
        noise = NoiseParams(1.0, 1.0)
        for _ in range(500):
            state = purify(state, fodder, noise).state
        assert fidelity(state) == pytest.approx(1.0, abs=1e-9)

    def test_dominates_finite_pumping(self):
        cfg = make_config(f0=0.98, span=31)
        fp = fixed_point_at_distance(cfg, 31)
        finite = fidelity(run_protocol(cfg).final)
        assert fp.converged
        assert fp.value >= finite - 1e-9

    def test_nonincreasing_in_span_up_to_parity_wobble(self):
        cfg = make_config(f0=0.98)
        values = [fixed_point_at_distance(cfg, span).value for span in (3, 7, 15, 31, 63)]
        assert all(a + PARITY_SLACK >= b for a, b in zip(values, values[1:]))

    def test_span_one_is_elementary_fidelity(self):
        fp = fixed_point_at_distance(make_config(f0=0.97), 1)
        assert fp.value == pytest.approx(0.97, abs=1e-12)

    def test_first_round_unpurifiable_is_not_converged(self):
        # Pure Psi- pumped with pure Psi+ under perfect operations never accepts.
        b, c = BellDiagonalState(1.0, 0.0, 0.0, 0.0), BellDiagonalState(0.0, 1.0, 0.0, 0.0)
        fp = _pumped_fixed_point(Level(b, c, (), None, b), NoiseParams(1.0, 1.0))
        assert fp == FixedPointResult(1.0, 1, False)


class TestAsymptoticFidelity:
    def test_error_free_limit(self):
        asym = asymptotic_fidelity(perfect_config())
        assert asym.converged
        assert asym.value == pytest.approx(1.0, abs=1e-9)

    def test_nondecreasing_in_initial_fidelity(self):
        values = [
            asymptotic_fidelity(make_config(f0=f0)).value
            for f0 in (0.96, 0.97, 0.98, 0.99, 1.0)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_error_mixing(self):
        values = [
            asymptotic_fidelity(make_config(f0=0.99, upsilon=u)).value
            for u in (0.0, 0.1, 0.2, 0.3)
        ]
        assert all(a + 1e-9 >= b for a, b in zip(values, values[1:]))
        assert all(v > 0.5 for v in values)

    def test_fixed_points_approach_asymptote(self):
        cfg = make_config(f0=0.98)
        asym = asymptotic_fidelity(cfg)
        assert asym.converged
        gaps = []
        span = 1
        for _ in range(14):
            span = 2 * span + 1
            gaps.append(abs(fixed_point_at_distance(cfg, span).value - asym.value))
            if gaps[-1] < 1e-3:
                break
        assert all(a + PARITY_SLACK >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_a_step_equal_to_the_tolerance_stops_the_search(self, monkeypatch):
        # The stop rule is <=.  On the default config the depth-3 step is the
        # first smaller than every earlier one; as the tolerance it ends the
        # search there, and a strict < would run on to depth 5.
        cfg = RunConfig().protocol_config()
        fp = {d: fixed_point_at_distance(cfg, 2 ** (d + 1) - 1).value for d in (1, 2, 3)}
        step = abs(fp[3] - fp[2])
        assert step < abs(fp[2] - fp[1])
        monkeypatch.setattr(analysis, "ASYMPTOTE_TOL", step)
        assert asymptotic_fidelity(cfg) == FixedPointResult(fp[3], 3, True)

    def test_nonincreasing_in_noise(self):
        values = [
            asymptotic_fidelity(make_config(f0=0.98, p=pe, eta=pe)).value
            for pe in (1.0, 0.9975, 0.995)
        ]
        assert all(a + 1e-9 >= b for a, b in zip(values, values[1:]))


class TestApplyOverrides:
    def test_replaces_noise_and_link(self):
        cfg = apply_overrides(make_config(), p=0.99, l0_km=10.0)
        assert cfg.noise.p == 0.99
        assert cfg.link.l0_km == 10.0

    def test_p_eta_sets_both(self):
        cfg = apply_overrides(make_config(), p_eta=0.997)
        assert cfg.noise.p == 0.997 and cfg.noise.eta == 0.997

    def test_target_span_rebuilds_depth(self):
        cfg = apply_overrides(make_config(span=15), target_span=63)
        assert cfg.depth == 5

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            apply_overrides(make_config(), wavelength_nm=1550.0)

    @pytest.mark.parametrize("overrides", [{"f0": 0.9}, {"m": 2}, {"target_span": 63}])
    def test_untouched_records_are_kept(self, overrides):
        base = make_config()
        cfg = apply_overrides(base, **overrides)
        assert cfg.link is base.link and cfg.noise is base.noise

    def test_p_eta_point_gets_new_noise(self):
        base = make_config()
        cfg = apply_overrides(base, p_eta=0.99)
        assert cfg.noise is not base.noise and cfg.link is base.link
        assert (cfg.noise.p, cfg.noise.eta, cfg.noise.upsilon) == (0.99, 0.99, base.noise.upsilon)

    def test_numpy_integer_m(self):
        # A scalar is left to ProtocolConfig's check; only a sequence is stretched.
        base = make_config(span=15)
        cfg = apply_overrides(base, m=np.int64(2))
        assert cfg.m == 2 and type(cfg.m) is int
        cfg = apply_overrides(base, m=(np.int64(1), np.int64(2)), target_span=31)
        assert cfg.m == (1, 2, 2, 2) and all(type(mi) is int for mi in cfg.m)
        with pytest.raises(ValueError, match="m must be an int or one int per level"):
            apply_overrides(base, m=np.float64(2.0))


class TestSweep:
    def test_single_point_equals_direct_evaluation(self):
        base = make_config(f0=0.98)
        rows = sweep(base, {"m": [3]})
        assert len(rows) == 1
        row = rows[0]
        direct = run_protocol(base)
        assert row["fidelity"] == pytest.approx(
            fidelity(direct.final), abs=1e-12
        )
        assert row["expected_time_s"] == pytest.approx(
            direct.total_expected_time, rel=1e-12
        )
        assert row["error"] == ""

    def test_lexicographic_order_and_coordinates(self):
        rows = sweep(make_config(f0=0.98), {"m": [1, 2], "upsilon": [0.0, 0.1]})
        coords = [(r["m"], r["upsilon"]) for r in rows]
        assert coords == [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)]

    def test_f0_ordering_preserved_across_spans(self):
        # higher initial fidelity always wins at the same span
        rows = sweep(
            make_config(),
            {"f0": [0.96, 0.98, 1.0], "target_span": [3, 7, 15]},
        )
        by_span = {}
        for row in rows:
            by_span.setdefault(row["target_span"], []).append(row["fidelity"])
        for span, fids in by_span.items():
            assert fids == sorted(fids)

    def test_deterministic(self):
        t1 = sweep(make_config(f0=0.98), {"m": [0, 1], "p_eta": [1.0, 0.995]})
        t2 = sweep(make_config(f0=0.98), {"m": [0, 1], "p_eta": [1.0, 0.995]})
        assert t1 == t2

    def test_per_point_failure_recorded(self):
        rows = sweep(make_config(f0=0.98), {"target_span": [7, 10]})
        good, bad = rows
        assert good["error"] == ""
        assert "2^k" in bad["error"]
        assert bad["fidelity"] is None

    def test_empty_per_level_m_is_a_row_error(self):
        # A per-level m cut to span 1's depth is empty, and the asymptote
        # still needs level 0's depth.
        base = apply_overrides(make_config(f0=0.98), m=(1, 2), target_span=7)
        rows = sweep(base, {"target_span": [1, 3]})
        short, full = rows
        assert "level 0" in short["error"] and short["f_inf"] is None
        assert full["error"] == ""

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_config(), {})
        with pytest.raises(ValueError):
            sweep(make_config(), {"m": []})

    def test_unknown_column_rejected(self):
        # A misspelt column is an error, not a row without it; "error" is a
        # column the CLI names.
        with pytest.raises(ValueError, match=r"unknown columns: \['fidelty'\]"):
            table(make_config(), {"f0": [0.98]}, ["fidelty", "error"])
        assert table(make_config(), {"f0": [0.98]}, ["error"]) == ({"f0": 0.98, "error": ""},)

    def test_error_free_limit_everywhere(self):
        rows = sweep(perfect_config(span=7), {"m": [0, 3]})
        for row in rows:
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)
            assert row["f_fp"] == pytest.approx(1.0, abs=1e-9)
            assert row["f_inf"] == pytest.approx(1.0, abs=1e-9)


def reference_fixed_point(config, span, tol=FIXED_POINT_TOL, max_iter=FIXED_POINT_MAX_ITER):
    """The from-scratch definition of F_FP: run the whole protocol for the
    span, rebuild the top level's B and C pairs, and pump until stall."""
    if span == 1:
        return FixedPointResult(fidelity(Ladder(config).pair(0)), 0, True)
    depth = nesting_depth(span)
    if isinstance(config.m, int):
        m = config.m
    else:
        m = tuple(
            config.m[i] if i < len(config.m) else config.m[-1]
            for i in range(depth)
        )
    sub = ProtocolConfig(
        link=config.link, noise=config.noise, m=m, target_span=span,
        f0=config.f0,
    )
    # The A pair of every span up to this one, span 1 first: the top
    # level's B joins two copies of pairs[-2], and its C joins three links
    # and two copies of pairs[-3] swapped together and purified once.
    ladder = Ladder(sub)
    pairs = [ladder.pair(d) for d in range(depth + 1)]
    b = build_b_pair(pairs[-2], pairs[-2], sub)
    elem = pairs[0]
    if len(pairs) == 2:
        c_state = connect_chain([elem, elem, elem], sub.noise)
    else:
        swapped = swap(pairs[-3], pairs[-3], sub.noise)
        inner = purify(swapped, swapped, sub.noise).state
        c_state = connect_chain([elem, inner, elem, inner, elem], sub.noise)
    state = b
    value = fidelity(state)
    small_steps = 0
    for iteration in range(1, max_iter + 1):
        outcome = purify(state, c_state, sub.noise)
        if not outcome.purifiable:
            return FixedPointResult(value, iteration, False)
        state = outcome.state
        new_value = fidelity(state)
        small_steps = small_steps + 1 if abs(new_value - value) <= tol else 0
        value = new_value
        if small_steps >= 2:
            return FixedPointResult(value, iteration, True)
    return FixedPointResult(value, max_iter, False)


def reference_asymptote(config, tol=ASYMPTOTE_TOL, max_levels=ASYMPTOTE_MAX_LEVELS):
    """The from-scratch definition of F_inf: one full rebuild per depth."""
    previous = None
    span = 1
    for level in range(1, max_levels + 1):
        span = 2 * span + 1
        fp = reference_fixed_point(config, span)
        if fp.value < USEFUL_FIDELITY_FLOOR:
            return FixedPointResult(fp.value, level, False)
        if previous is not None and abs(fp.value - previous) <= tol:
            return FixedPointResult(fp.value, level, True)
        previous = fp.value
    return FixedPointResult(previous, max_levels, False)


def outcome(fn, *args):
    """Result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ProtocolError) as exc:
        return type(exc).__name__, str(exc)


def unpurifiable_config(m, span=7):
    """Perfect operations on pure Psi+ links: some pump step meets an
    orthogonal parity class and never accepts."""
    link = LinkParams(l0_km=20.0, attenuation_db_per_km=0.0, p_em=0.1, eps_local=1.0)
    return ProtocolConfig(
        link=link, noise=NoiseParams(1.0, 1.0, 0.0), m=m, target_span=span, f0=0.0
    )


LADDER_CASES = {
    "per_level_m_with_zeros": make_config(f0=0.98, m=(2, 0, 1, 0), span=31),
    "pinned_f0": make_config(f0=0.97, m=2),
    "asymptote_below_half": make_config(f0=0.96),
    "link_derived_f0": make_config(p=0.99, eta=0.99, upsilon=0.1),
}


class TestLadderMatchesFromScratchDefinition:
    """The ladder walk must give exactly what rebuilding every span from
    scratch gives."""

    @pytest.mark.parametrize("name", sorted(LADDER_CASES))
    def test_fixed_points(self, name):
        cfg = LADDER_CASES[name]
        for span in (1, 3, 7, 15, 31, 63, 127):
            assert fixed_point_at_distance(cfg, span) == reference_fixed_point(cfg, span)

    @pytest.mark.parametrize("name", sorted(LADDER_CASES))
    def test_asymptote(self, name):
        cfg = LADDER_CASES[name]
        assert asymptotic_fidelity(cfg) == reference_asymptote(cfg)

    def test_asymptote_below_half_is_not_converged(self):
        asym = asymptotic_fidelity(LADDER_CASES["asymptote_below_half"])
        assert asym.value < USEFUL_FIDELITY_FLOOR and not asym.converged

    @pytest.mark.parametrize("m", [3, (1, 3)])
    def test_unpurifiable_raises_the_same_error(self, m):
        cfg = unpurifiable_config(m)
        with pytest.raises(ProtocolError, match="unpurifiable pump step"):
            fixed_point_at_distance(cfg, 7)
        for span in (3, 7, 15):
            assert outcome(fixed_point_at_distance, cfg, span) == outcome(
                reference_fixed_point, cfg, span
            )
        assert outcome(asymptotic_fidelity, cfg) == outcome(reference_asymptote, cfg)

    def test_tuple_m_sweep_never_shares_across_stretched_m(self):
        # m = (2, 0) stretches to (2,) at span 3 but (2, 0) at span 7: the
        # two asymptotes differ and must not be merged.
        base = make_config(f0=0.98, m=(2, 0), span=7)
        rows = sweep(base, {"target_span": [3, 7, 15], "f0": [0.97, 0.98]})
        for row in rows:
            cfg = apply_overrides(base, target_span=row["target_span"], f0=row["f0"])
            assert row["error"] == ""
            assert row["f_fp"] == reference_fixed_point(cfg, cfg.target_span).value
            assert row["f_inf"] == reference_asymptote(cfg).value
        f_inf = {row["target_span"]: row["f_inf"] for row in rows if row["f0"] == 0.98}
        assert f_inf[3] != f_inf[7]
        # A per-level m is stretched by reusing its last entry and cut to
        # the new depth; one cut to span 1 is empty and stretches to nothing.
        assert apply_overrides(base, m=(1, 2), target_span=31).m == (1, 2, 2, 2)
        assert apply_overrides(base, m=(1, 2), target_span=3).m == (1,)
        empty = apply_overrides(base, m=(1, 2), target_span=1)
        for row in sweep(empty, {"target_span": [3, 7]}):
            assert "per-level m" in row["error"] and row["f_inf"] is None

    def test_tuple_m_walk_is_keyed_without_trailing_repeats(self, monkeypatch):
        # Over spans 1-63, m = (1, 2) stretches to (), (1,), (1, 2), (1, 2, 2),
        # ...; every tuple from span 7 on reads the ladder of (1, 2).
        base = apply_overrides(make_config(f0=0.98), m=(1, 2), target_span=63)
        axes = {"target_span": [1, 3, 7, 15, 31, 63]}
        expected = per_point_sweep_rows(base, axes)
        made, builds = [], []

        class CountingWalk(analysis._Walk):
            def __init__(self, config):
                made.append(config.m)
                super().__init__(config)

        real = protocol.build_b_pair

        def logged(a_left, a_right, config):
            builds.append(config.m)
            return real(a_left, a_right, config)

        monkeypatch.setattr(analysis, "_Walk", CountingWalk)
        monkeypatch.setattr(protocol, "build_b_pair", logged)
        assert sweep(base, axes) == expected
        assert made == [(), (1,), (1, 2)]
        assert len(builds) == 38

    def test_sweep_repeats_a_failed_asymptote(self):
        # At span 1 the protocol and its fixed point need no pumping, but
        # the asymptote's first level is unpurifiable.
        rows = sweep(unpurifiable_config(3, span=1), {"target_span": [1, 1]})
        expected = outcome(reference_asymptote, unpurifiable_config(3, span=1))
        assert expected[0] == "ProtocolError"
        for row in rows:
            assert row["error"] == expected[1]
            assert row["f_inf"] is None


def test_finite_pumping_can_exceed_the_fixed_point():
    # F_FP is the limit of unbounded pumping, not an upper bound: at
    # p = eta = 0.97 and span 7 the third pump round sits above it.
    cfg = load_config(None, {"p": 0.97, "eta": 0.97, "target_span": 7}).protocol_config()
    result = run_protocol(cfg)
    fp = fixed_point_at_distance(cfg, 7)
    elem, a3 = Ladder(cfg).pair(0), Ladder(cfg).pair(1)
    b = build_b_pair(a3, a3, cfg)
    swapped = swap(elem, elem, cfg.noise)
    inner = purify(swapped, swapped, cfg.noise).state
    c_state = connect_chain([elem, inner, elem, inner, elem], cfg.noise)
    values = [fidelity(b)]
    state = b
    for _ in range(fp.iterations):
        state = purify(state, c_state, cfg.noise).state
        values.append(fidelity(state))
    assert values[0] == pytest.approx(0.69845, abs=5e-6)
    assert values[3] == fidelity(result.final)
    assert values[3] == pytest.approx(0.69411, abs=5e-6)
    assert all(x >= y for x, y in zip(values[3:], values[4:]))
    assert fp.converged and values[-1] == fp.value
    assert fp.value == pytest.approx(0.69113, abs=5e-6)
    assert fidelity(result.final) > fp.value


def per_point_sweep_rows(base, axes):
    """Sweep rows built point by point from the per-point functions, each
    call on fresh ladders, with nothing shared between points."""
    rows = []
    for point in itertools.product(*axes.values()):
        row = dict(zip(axes, point))
        try:
            cfg = apply_overrides(base, **row)
            result = run_protocol(cfg)
            fp = fixed_point_at_distance(cfg, cfg.target_span)
            asym = asymptotic_fidelity(cfg)
            row.update(
                fidelity=fidelity(result.final), f_fp=fp.value, f_inf=asym.value,
                expected_time_s=result.total_expected_time, error="",
            )
        except (ValueError, ProtocolError) as exc:
            row.update(
                fidelity=None, f_fp=None, f_inf=None, expected_time_s=None, error=str(exc)
            )
        rows.append(row)
    return tuple(rows)


README_AXES = {"f0": [0.96, 0.97, 0.98, 0.99, 1.0], "target_span": [3, 7, 15, 31, 63, 127]}
#: The README grid with the span axis outermost: every f0's walk is read
#: again at every span.
README_AXES_SPANS_FIRST = {"target_span": README_AXES["target_span"], "f0": README_AXES["f0"]}

SHARED_WALK_GRIDS = {
    "readme": (make_config(), README_AXES),
    "readme_spans_first": (make_config(), README_AXES_SPANS_FIRST),
    "repeated_and_descending_spans": (
        make_config(f0=0.98), {"target_span": [15, 3, 15, 1, 7, 3], "f0": [0.97, 0.98]}
    ),
    "span_outer_p_eta_inner": (
        make_config(), {"target_span": [7, 1, 31], "p_eta": [0.995, 0.99], "f0": [0.98]}
    ),
    "tuple_m": (
        make_config(f0=0.98, m=(2, 0), span=7), {"target_span": [1, 3, 7, 15, 3]}
    ),
    "tuple_m_axis": (make_config(f0=0.98), {"m": [(1, 3), 2], "target_span": [7, 1, 3]}),
    "unpurifiable": (unpurifiable_config(3), {"target_span": [1, 3, 7, 1], "m": [0, 3]}),
    "p_zero_and_tiny_p_links": (
        make_config(f0=0.98),
        {"l0_km": [20.0, 1400.0, 1440.0, 1480.0], "target_span": [1, 3, 7]},
    ),
    "bad_span": (make_config(f0=0.98), {"target_span": [7, 10, 0, 7]}),
}


class TestSweepSharesOneWalkPerLadder:
    """Points that differ only in target span read one ladder walk; every
    row must equal the row built from scratch for that point alone."""

    @pytest.mark.parametrize("name", sorted(SHARED_WALK_GRIDS))
    def test_rows_equal_per_point_reference(self, name):
        base, axes = SHARED_WALK_GRIDS[name]
        rows = sweep(base, axes)
        expected = per_point_sweep_rows(base, axes)
        assert rows == expected
        assert repr(rows) == repr(expected)

    def test_grids_cover_every_kind_of_error(self):
        errors = " ".join(
            row["error"]
            for base, axes in SHARED_WALK_GRIDS.values()
            for row in per_point_sweep_rows(base, axes)
        )
        for message in (
            "unpurifiable pump step", "P = 0", "below float resolution", "2^k - 1",
        ):
            assert message in errors

    @staticmethod
    def assert_builds_each_level_once(monkeypatch, axes):
        base = make_config()
        # Each f0's ladder reaches the deeper of span 127's depth (6) and
        # the depth where its asymptote stops.
        deepest = {
            f0: max(6, asymptotic_fidelity(apply_overrides(base, f0=f0)).iterations)
            for f0 in README_AXES["f0"]
        }
        builds = []
        real = protocol.build_b_pair

        def logged(a_left, a_right, config):
            builds.append(config.f0)
            return real(a_left, a_right, config)

        monkeypatch.setattr(protocol, "build_b_pair", logged)
        sweep(base, axes)
        # A walk builds its levels in order, so one call per level below its
        # deepest means no level is built twice.
        assert Counter(builds) == Counter(deepest)
        assert sum(deepest.values()) == len(builds)

    def test_readme_grid_builds_each_level_once(self, monkeypatch):
        self.assert_builds_each_level_once(monkeypatch, README_AXES)

    def test_interleaved_grid_builds_each_level_once(self, monkeypatch):
        # A walk is kept while any later point still reads its key.
        self.assert_builds_each_level_once(monkeypatch, README_AXES_SPANS_FIRST)

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

    def test_readme_sweep_memory_at_fixed_work(self):
        argv = ["sweep", "--axis", "f0=0.96,0.97,0.98,0.99,1.0",
                "--axis", "target_span=3,7,15,31,63,127", "--tc-s", "70e-6"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # imports and first-call caches
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.getvalue().count("\n") > 30
        assert peak <= README_SWEEP_PEAK_BOUND, peak

    @pytest.mark.parametrize(
        "axes", [README_AXES, README_AXES_SPANS_FIRST], ids=["readme", "readme_spans_first"]
    )
    def test_walk_released_after_its_last_point(self, axes, monkeypatch):
        made = []

        class TrackedWalk(analysis._Walk):
            def __init__(self, config):
                super().__init__(config)
                made.append(weakref.ref(self))

            def asymptote(self):
                # Every earlier f0's points are done, so its walk is gone.
                assert [ref() is None for ref in made] == [True] * (len(made) - 1) + [False]
                return super().asymptote()

        monkeypatch.setattr(analysis, "_Walk", TrackedWalk)
        sweep(make_config(), axes)
        assert len(made) == len(README_AXES["f0"])
        assert all(ref() is None for ref in made)

    @pytest.mark.parametrize("command", ["fixed-point", "simulate"])
    def test_span_table_command_walks_one_ladder(self, command, monkeypatch, capsys):
        run_config = RunConfig(f0=0.98, target_span=127)
        cfg = run_config.protocol_config()
        ladder = Ladder(cfg)
        ladder.pair(cfg.depth)
        fixed_points = [FixedPointResult(0.98, 0, True)] + [
            _pumped_fixed_point(level, cfg.noise) for level in ladder.levels
        ]
        asymptote = asymptotic_fidelity(cfg)
        expected_rows = []
        for depth, fp in enumerate(fixed_points):
            span = 2 ** (depth + 1) - 1
            if command == "simulate":
                time = ladder.time(depth).mean
                values = [fidelity(ladder.pair(depth)), fp.value, time]
                values.append(time / expected_link_time(cfg.link))
            else:
                values = [fp.value, asymptote.value]
            values = [span * run_config.l0_km, *values]
            expected_rows.append([str(span), *(f"{v:.12g}" for v in values)])
        # One build per level, in order: level i joins two copies of depth
        # i's pair.  Only fixed-point reads the asymptote's deeper levels.
        deepest = max(cfg.depth, asymptote.iterations) if command == "fixed-point" else cfg.depth
        expected_builds = [ladder.pair(d) for d in range(deepest)]
        builds = []
        real = protocol.build_b_pair

        def logged(a_left, a_right, config):
            builds.append(a_left)
            return real(a_left, a_right, config)

        monkeypatch.setattr(protocol, "build_b_pair", logged)
        # Span 1 reads the elementary pair and builds no level.
        assert fixed_point_at_distance(cfg, 1) == fixed_points[0]
        assert not builds
        assert main([command, "--target-span", "127", "--f0", "0.98"]) == 0
        lines = [line for line in io.StringIO(capsys.readouterr().out) if line[0] != "#"]
        assert list(csv.reader(lines))[1:] == expected_rows
        assert builds == expected_builds

    def test_interrupted_level_is_rebuilt_not_lost(self, monkeypatch):
        # An exception that is not a protocol error stops a level mid-build;
        # nothing of it is kept, and the next read builds it again.
        cfg = make_config(f0=0.98, span=63)
        real = protocol.build_c_pair
        calls = itertools.count()

        def interrupted(inner, config):
            if next(calls) == 3:
                raise KeyboardInterrupt
            return real(inner, config)

        monkeypatch.setattr(protocol, "build_c_pair", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fixed_point_at_distance(cfg, 63)
        assert fixed_point_at_distance(cfg, 63) == reference_fixed_point(cfg, 63)
        assert asymptotic_fidelity(cfg) == reference_asymptote(cfg)

    def test_negative_depth_rejected(self):
        cfg = make_config(f0=0.98, span=7)
        fresh = analysis._Walk(cfg)
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            fresh.fixed_point(-1)
        walk = analysis._Walk(cfg)
        deepest = walk.fixed_point(3)
        # Before the check, -1 read the last level and kept its fixed point under -1.
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            walk.fixed_point(-1)
        assert sorted(walk._fixed_points) == [3] and walk.fixed_point(3) is deepest
        assert walk.fixed_point(3) == reference_fixed_point(cfg, 15)

    def test_failed_level_raises_again_for_deeper_levels(self, capsys):
        cfg = unpurifiable_config(3, span=15)
        first = outcome(fixed_point_at_distance, cfg, 7)
        assert first[0] == "ProtocolError" and "level 0" in first[1]
        assert outcome(fixed_point_at_distance, cfg, 15) == first
        assert outcome(asymptotic_fidelity, cfg) == first
        link_flags = "--attenuation-db-per-km 0 --p-em 0.1 --p 1 --eta 1 --f0 0"
        for command in ("simulate", "fixed-point"):
            assert main(f"{command} {link_flags} --m 3 --target-span 15".split()) == 2
            assert capsys.readouterr().err == f"error: {first[1]}\n"
        p_zero = apply_overrides(make_config(), l0_km=5000.0)
        assert "(P = 0)" in outcome(asymptotic_fidelity, p_zero)[1]

    @pytest.mark.parametrize(
        "base, axes",
        [
            (unpurifiable_config(3), {"m": [3, 2], "target_span": [3, 7]}),
            (make_config(f0=0.98), {"target_span": [7, 10]}),
        ],
        ids=["unpurifiable", "bad_span"],
    )
    def test_failed_walks_are_freed_without_the_cycle_collector(self, base, axes, monkeypatch):
        # Neither a walk nor the sweep keeps an error it caught, so no
        # traceback holds a walk, or the sweep's frame, in a cycle.
        made = []

        class TrackedWalk(analysis._Walk):
            def __init__(self, config):
                super().__init__(config)
                made.append(weakref.ref(self))

        monkeypatch.setattr(analysis, "_Walk", TrackedWalk)
        gc.disable()
        try:
            rows = sweep(base, axes)
            alive = [ref() is not None for ref in made]
        finally:
            gc.enable()
        assert any(row["error"] for row in rows)
        assert alive and not any(alive)
