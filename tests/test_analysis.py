"""Fixed points, the distance asymptote and parameter sweeps."""

import pytest

from qrepeater.analysis import (
    ASYMPTOTE_MAX_LEVELS,
    ASYMPTOTE_TOL,
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    USEFUL_FIDELITY_FLOOR,
    FixedPointResult,
    apply_overrides,
    asymptotic_fidelity,
    fixed_point_at_distance,
    sweep,
)
from qrepeater.bell import fidelity, from_fidelity
from qrepeater.channel import LinkParams
from qrepeater.config import load_config
from qrepeater.ops import NoiseParams, connect_chain, purify, swap
from qrepeater.protocol import (
    ProtocolConfig,
    ProtocolError,
    build_b_pair,
    default_schedule,
    elementary_pair,
    run_protocol,
)

#: Fixed points of adjacent nesting levels wobble by a few 1e-4 because
#: the pumping map alternates error types between rounds; monotonicity
#: holds beyond that parity effect.
PARITY_SLACK = 1e-3


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
        finite = fidelity(run_protocol(cfg).final.state)
        assert fp.converged
        assert fp.value >= finite - 1e-9

    def test_nonincreasing_in_span_up_to_parity_wobble(self):
        cfg = make_config(f0=0.98)
        values = [fixed_point_at_distance(cfg, span).value for span in (3, 7, 15, 31, 63)]
        assert all(a + PARITY_SLACK >= b for a, b in zip(values, values[1:]))

    def test_span_one_is_elementary_fidelity(self):
        fp = fixed_point_at_distance(make_config(f0=0.97), 1)
        assert fp.value == pytest.approx(0.97, abs=1e-12)


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

    def test_target_span_rebuilds_schedule(self):
        cfg = apply_overrides(make_config(span=15), target_span=63)
        assert cfg.schedule == (1, 3, 7, 15, 31)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            apply_overrides(make_config(), wavelength_nm=1550.0)


class TestSweep:
    def test_single_point_equals_direct_evaluation(self):
        base = make_config(f0=0.98)
        table = sweep(base, {"m": [3]})
        assert len(table.rows) == 1
        row = table.rows[0]
        direct = run_protocol(base)
        assert row["fidelity"] == pytest.approx(
            fidelity(direct.final.state), abs=1e-12
        )
        assert row["expected_time_s"] == pytest.approx(
            direct.total_expected_time, rel=1e-12
        )
        assert row["error"] == ""

    def test_lexicographic_order_and_coordinates(self):
        table = sweep(make_config(f0=0.98), {"m": [1, 2], "upsilon": [0.0, 0.1]})
        coords = [(r["m"], r["upsilon"]) for r in table.rows]
        assert coords == [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)]

    def test_f0_ordering_preserved_across_spans(self):
        # higher initial fidelity always wins at the same span
        table = sweep(
            make_config(),
            {"f0": [0.96, 0.98, 1.0], "target_span": [3, 7, 15]},
        )
        by_span = {}
        for row in table.rows:
            by_span.setdefault(row["target_span"], []).append(row["fidelity"])
        for span, fids in by_span.items():
            assert fids == sorted(fids)

    def test_deterministic(self):
        t1 = sweep(make_config(f0=0.98), {"m": [0, 1], "p_eta": [1.0, 0.995]})
        t2 = sweep(make_config(f0=0.98), {"m": [0, 1], "p_eta": [1.0, 0.995]})
        assert t1 == t2

    def test_per_point_failure_recorded(self):
        table = sweep(make_config(f0=0.98), {"target_span": [7, 10]})
        good, bad = table.rows
        assert good["error"] == ""
        assert "2^k" in bad["error"]
        assert bad["fidelity"] is None

    def test_empty_per_level_m_is_a_row_error(self):
        # A per-level m cut to span 1's depth is empty, and the asymptote
        # still needs level 0's depth.
        base = apply_overrides(make_config(f0=0.98), m=(1, 2), target_span=7)
        table = sweep(base, {"target_span": [1, 3]})
        short, full = table.rows
        assert "level 0" in short["error"] and short["f_inf"] is None
        assert full["error"] == ""

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_config(), {})
        with pytest.raises(ValueError):
            sweep(make_config(), {"m": []})

    def test_error_free_limit_everywhere(self):
        table = sweep(perfect_config(span=7), {"m": [0, 3]})
        for row in table.rows:
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)
            assert row["f_fp"] == pytest.approx(1.0, abs=1e-9)
            assert row["f_inf"] == pytest.approx(1.0, abs=1e-9)


def reference_fixed_point(config, span, tol=FIXED_POINT_TOL, max_iter=FIXED_POINT_MAX_ITER):
    """The from-scratch definition of F_FP: run the whole protocol for the
    span, rebuild the top level's B and C pairs, and pump until stall."""
    if span == 1:
        return FixedPointResult(fidelity(elementary_pair(config).state), 0, True, tol)
    schedule = default_schedule(span)
    if isinstance(config.m, int):
        m = config.m
    else:
        m = tuple(
            config.m[i] if i < len(config.m) else config.m[-1]
            for i in range(len(schedule))
        )
    sub = ProtocolConfig(
        link=config.link, noise=config.noise, m=m, target_span=span,
        f0=config.f0,
    )
    # The A pair of every span up to this one, span 1 first: the top
    # level's B joins two copies of pairs[-2], and its C joins three links
    # and two copies of pairs[-3] swapped together and purified once.
    pairs = [elementary_pair(sub), *run_protocol(sub).per_level]
    b = build_b_pair(pairs[-2], pairs[-2], sub)
    elem = pairs[0].state
    if len(pairs) == 2:
        c_state = connect_chain([elem, elem, elem], sub.noise)
    else:
        swapped = swap(pairs[-3].state, pairs[-3].state, sub.noise)
        inner = purify(swapped, swapped, sub.noise).state
        c_state = connect_chain([elem, inner, elem, inner, elem], sub.noise)
    state = b.state
    value = fidelity(state)
    small_steps = 0
    for iteration in range(1, max_iter + 1):
        outcome = purify(state, c_state, sub.noise)
        if not outcome.purifiable:
            return FixedPointResult(value, iteration, False, tol)
        state = outcome.state
        new_value = fidelity(state)
        small_steps = small_steps + 1 if abs(new_value - value) <= tol else 0
        value = new_value
        if small_steps >= 2:
            return FixedPointResult(value, iteration, True, tol)
    return FixedPointResult(value, max_iter, False, tol)


def reference_asymptote(config, tol=ASYMPTOTE_TOL, max_levels=ASYMPTOTE_MAX_LEVELS):
    """The from-scratch definition of F_inf: one full rebuild per depth."""
    previous = None
    span = 1
    for level in range(1, max_levels + 1):
        span = 2 * span + 1
        fp = reference_fixed_point(config, span)
        if fp.value < USEFUL_FIDELITY_FLOOR:
            return FixedPointResult(fp.value, level, False, tol)
        if previous is not None and abs(fp.value - previous) <= tol:
            return FixedPointResult(fp.value, level, True, tol)
        previous = fp.value
    return FixedPointResult(previous, max_levels, False, tol)


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
        assert asymptotic_fidelity(cfg, 1e-3, 3) == reference_asymptote(cfg, 1e-3, 3)

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
        # No level beyond max_levels is built, so none can raise.
        assert asymptotic_fidelity(cfg, ASYMPTOTE_TOL, 0) == reference_asymptote(
            cfg, ASYMPTOTE_TOL, 0
        )

    def test_tuple_m_sweep_never_shares_across_stretched_m(self):
        # m = (2, 0) stretches to (2,) at span 3 but (2, 0) at span 7: the
        # two asymptotes differ and must not be merged.
        base = make_config(f0=0.98, m=(2, 0), span=7)
        table = sweep(base, {"target_span": [3, 7, 15], "f0": [0.97, 0.98]})
        for row in table.rows:
            cfg = apply_overrides(base, target_span=row["target_span"], f0=row["f0"])
            assert row["error"] == ""
            assert row["f_fp"] == reference_fixed_point(cfg, cfg.target_span).value
            assert row["f_inf"] == reference_asymptote(cfg).value
        f_inf = {row["target_span"]: row["f_inf"] for row in table.rows if row["f0"] == 0.98}
        assert f_inf[3] != f_inf[7]
        # A per-level m is stretched by reusing its last entry and cut to
        # the new depth; one cut to span 1 is empty and stretches to nothing.
        assert apply_overrides(base, m=(1, 2), target_span=31).m == (1, 2, 2, 2)
        assert apply_overrides(base, m=(1, 2), target_span=3).m == (1,)
        empty = apply_overrides(base, m=(1, 2), target_span=1)
        for row in sweep(empty, {"target_span": [3, 7]}).rows:
            assert "per-level m" in row["error"] and row["f_inf"] is None

    def test_sweep_repeats_a_failed_asymptote(self):
        # At span 1 the protocol and its fixed point need no pumping, but
        # the asymptote's first level is unpurifiable.
        table = sweep(unpurifiable_config(3, span=1), {"target_span": [1, 1]})
        expected = outcome(reference_asymptote, unpurifiable_config(3, span=1))
        assert expected[0] == "ProtocolError"
        for row in table.rows:
            assert row["error"] == expected[1]
            assert row["f_inf"] is None


def test_finite_pumping_can_exceed_the_fixed_point():
    # F_FP is the limit of unbounded pumping, not an upper bound: at
    # p = eta = 0.97 and span 7 the third pump round sits above it.
    cfg = load_config(None, {"p": 0.97, "eta": 0.97, "target_span": 7}).protocol_config()
    result = run_protocol(cfg)
    fp = fixed_point_at_distance(cfg, 7)
    a3 = result.per_level[0]
    b = build_b_pair(a3, a3, cfg)
    elem = elementary_pair(cfg).state
    swapped = swap(elem, elem, cfg.noise)
    inner = purify(swapped, swapped, cfg.noise).state
    c_state = connect_chain([elem, inner, elem, inner, elem], cfg.noise)
    values = [fidelity(b.state)]
    state = b.state
    for _ in range(fp.iterations):
        state = purify(state, c_state, cfg.noise).state
        values.append(fidelity(state))
    assert values[0] == pytest.approx(0.69845, abs=5e-6)
    assert values[3] == fidelity(result.final.state)
    assert values[3] == pytest.approx(0.69411, abs=5e-6)
    assert all(x >= y for x, y in zip(values[3:], values[4:]))
    assert fp.converged and values[-1] == fp.value
    assert fp.value == pytest.approx(0.69113, abs=5e-6)
    assert fidelity(result.final.state) > fp.value
