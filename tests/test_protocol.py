"""Nested protocol: construction rules, closed-form checks, expected-time
models and the discrete-event sampler."""

import hashlib
import math
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrepeater import protocol
from qrepeater.bell import BellDiagonalState, fidelity, from_fidelity, weights_of
from qrepeater.channel import (
    LinkParams,
    channel_efficiency,
    entangle_success_prob,
    p_em_for_fidelity,
)
from qrepeater.config import RunConfig
from qrepeater.ops import NoiseParams
from qrepeater.protocol import (
    Ladder,
    ProtocolConfig,
    ProtocolError,
    build_b_pair,
    build_c_pair,
    level_step,
    monte_carlo_time,
    nesting_depth,
    pump,
    pumping_depth,
    round_span_up,
    run_protocol,
)

TOL = 1e-12
ROOT = Path(__file__).resolve().parents[1]


def chain_phase_only(f, n):
    return (1 + (2 * f - 1) ** n) / 2


def dejmps_phase_only(f1, f2):
    accept = f1 * f2 + (1 - f1) * (1 - f2)
    return f1 * f2 / accept, accept


def make_config(f0=None, p=1.0, eta=1.0, upsilon=0.0, m=3, span=15, p_em=0.05, eps_local=1.0):
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.2, p_em=p_em, eps_local=eps_local,
        t0_s=1e-6, tc_s=70e-6,
    )
    noise = NoiseParams(p=p, eta=eta, upsilon=upsilon)
    return ProtocolConfig(link=link, noise=noise, m=m, target_span=span, f0=f0)


def perfect_config(m=3, span=15):
    # eps_local = 1 and no attenuation gives F0 = 1 exactly
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.0, p_em=0.1, eps_local=1.0,
        t0_s=1e-6, tc_s=70e-6,
    )
    return ProtocolConfig(
        link=link, noise=NoiseParams(1.0, 1.0, 0.0), m=m, target_span=span
    )


class TestSchedule:
    def test_nesting_depth_counts_doublings(self):
        assert nesting_depth(15) == 3
        assert nesting_depth(1) == 0
        assert nesting_depth(3) == 1

    def test_rejects_non_power_form(self):
        with pytest.raises(ValueError, match="2\\^k"):
            nesting_depth(10)

    def test_round_span_up(self):
        assert round_span_up(1) == 1
        assert round_span_up(4) == 7
        assert round_span_up(50) == 63
        assert round_span_up(63) == 63

    def test_depth_is_derived_from_target_span(self):
        for span in (1, 3, 15, 1023):
            cfg = ProtocolConfig(link=LinkParams(), noise=NoiseParams(), target_span=span)
            assert cfg.depth == nesting_depth(span)
        with pytest.raises(TypeError, match="depth"):
            ProtocolConfig(link=LinkParams(), noise=NoiseParams(), target_span=15, depth=3)

    def test_per_level_m(self):
        cfg = ProtocolConfig(
            link=LinkParams(), noise=NoiseParams(), m=(1, 2, 3), target_span=15
        )
        assert pumping_depth(cfg.m, 0) == 1
        assert pumping_depth(cfg.m, 2) == 3
        with pytest.raises(ValueError, match="entries"):
            ProtocolConfig(link=LinkParams(), noise=NoiseParams(), m=(1, 2), target_span=15)


class TestElementaryPair:
    def test_perfect_link(self):
        pair = Ladder(perfect_config()).pair(0)
        assert np.max(np.abs(pair.weights - [1, 0, 0, 0])) < TOL

    def test_link_composition(self):
        cfg = make_config(p_em=0.05, eps_local=0.2)
        # attenuation zeroed through eps comparison: use closed forms directly
        link = cfg.link
        pair = Ladder(cfg).pair(0)
        from qrepeater.channel import channel_efficiency, initial_fidelity

        eps = channel_efficiency(link)
        assert fidelity(pair) == pytest.approx(initial_fidelity(0.05, eps), abs=TOL)
        prob = entangle_success_prob(0.05, eps)
        unit = link.attempt_duration_s
        assert Ladder(cfg).time(0).mean == pytest.approx(unit / prob, rel=1e-12)
        assert Ladder(cfg).time(0).var == pytest.approx((1 - prob) / prob**2 * unit**2, rel=1e-12)

    def test_f0_override(self):
        pair = Ladder(make_config(f0=0.961558)).pair(0)
        assert fidelity(pair) == pytest.approx(0.961558, abs=TOL)


class TestBuildBPair:
    def test_perfect_inputs(self):
        cfg = perfect_config()
        a = Ladder(cfg).pair(0)
        b = build_b_pair(a, a, cfg)
        assert np.max(np.abs(b.weights - [1, 0, 0, 0])) < TOL

    def test_three_link_chain_closed_form(self):
        cfg = make_config(f0=0.99, m=0, span=3)
        a = Ladder(cfg).pair(0)
        b = build_b_pair(a, a, cfg)
        assert fidelity(b) == pytest.approx(chain_phase_only(0.99, 3), abs=TOL)

    def test_noisy_value_matches_oracle_fold(self):
        from qrepeater.exact import swap_oracle

        cfg = make_config(f0=0.99, p=0.995, eta=0.995, span=3)
        a = Ladder(cfg).pair(0)
        b = build_b_pair(a, a, cfg)
        step = swap_oracle(a, a, cfg.noise)
        expected = swap_oracle(step, a, cfg.noise)
        assert np.max(np.abs(b.weights - expected.weights)) < TOL


class TestBuildCPair:
    def test_perfect(self):
        cfg = perfect_config()
        c = build_c_pair(None, cfg)
        assert np.max(np.abs(c.weights - [1, 0, 0, 0])) < TOL

    def test_three_elementary_chain(self):
        cfg = make_config(f0=0.99, span=3)
        c = build_c_pair(None, cfg)
        assert fidelity(c) == pytest.approx(chain_phase_only(0.99, 3), abs=TOL)

    def test_five_chain_with_elementary_inner_pairs(self):
        # span-1 inner pairs are elementary, so the chain is five
        # phase-only links
        cfg = make_config(f0=0.99, span=3)
        c = build_c_pair(Ladder(cfg).pair(0), cfg)
        assert fidelity(c) == pytest.approx(chain_phase_only(0.99, 5), abs=TOL)


class TestPump:
    def test_m_zero_keeps_the_b_pair(self):
        cfg = make_config(f0=0.9, span=3)
        a = Ladder(cfg).pair(0)
        b = build_b_pair(a, a, cfg)
        out, probs = pump(b, build_c_pair(None, cfg), 0, cfg)
        assert out is b and probs == ()

    def test_single_step_closed_form(self):
        cfg = make_config(span=3, m=1)
        state = from_fidelity(0.9, 0.0)
        out, (q,) = pump(state, state, 1, cfg)
        expected_f, expected_q = dejmps_phase_only(0.9, 0.9)
        assert fidelity(out) == pytest.approx(expected_f, abs=TOL)
        assert q == pytest.approx(expected_q, abs=TOL)

    def test_fixed_fodder_pumps_to_unity_with_perfect_ops(self):
        cfg = make_config(span=3)
        state = from_fidelity(0.9, 0.0)
        out, probs = pump(state, state, 200, cfg)
        assert len(probs) == 200
        assert fidelity(out) == pytest.approx(1.0, abs=1e-9)

    def test_unpurifiable_raises_with_level(self):
        cfg = make_config(span=3)
        b, c = from_fidelity(1.0, 0.0), from_fidelity(0.0, 0.0)
        with pytest.raises(ProtocolError, match="level 4"):
            pump(b, c, 1, cfg, level=4)
        # One ``except ValueError`` catches bad input and failed builds alike.
        assert issubclass(ProtocolError, ValueError)


class TestRunProtocol:
    def test_perfect_world_identity(self):
        for m in (0, 1, 3):
            for span in (3, 15, 127):
                result = run_protocol(perfect_config(m=m, span=span))
                assert fidelity(result.final) == pytest.approx(1.0, abs=TOL)

    def test_m_zero_chain_closed_form(self):
        result = run_protocol(make_config(f0=0.99, m=0, span=15))
        assert fidelity(result.final) == pytest.approx(
            chain_phase_only(0.99, 15), abs=TOL
        )

    def test_fidelity_nondecreasing_in_m(self):
        for f0 in (0.97, 0.98, 1.0):
            for pe in (0.995, 1.0):
                fids = [
                    fidelity(
                        run_protocol(make_config(f0=f0, p=pe, eta=pe, m=m, span=15)).final
                    )
                    for m in (0, 1, 2, 3)
                ]
                assert all(f2 + 1e-12 >= f1 for f1, f2 in zip(fids, fids[1:]))

    def test_saturation_with_distance(self):
        f31 = fidelity(
            run_protocol(make_config(f0=0.98, p=0.995, eta=0.995, m=3, span=31)).final
        )
        f127 = fidelity(
            run_protocol(make_config(f0=0.98, p=0.995, eta=0.995, m=3, span=127)).final
        )
        assert f31 - f127 <= 0.02

    def test_span_one_returns_elementary(self):
        result = run_protocol(make_config(f0=0.98, span=1))
        assert fidelity(result.final) == pytest.approx(0.98, abs=TOL)


class TestLadder:
    def test_negative_depth_rejected(self):
        cfg = make_config(f0=0.98, p=0.995, eta=0.995, span=7)
        fresh = Ladder(cfg)
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            fresh.pair(-1)
        assert fresh.levels == []
        built = Ladder(cfg)
        top = built.pair(3)
        # Before the check, -1 indexed the last level and returned its pair.
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            built.pair(-1)
        assert len(built.levels) == 3 and built.pair(3) is top

    CONFIGS = {
        "default": RunConfig(target_span=31).protocol_config(),
        "f0_pinned": make_config(f0=0.98, p=0.995, eta=0.995, span=63),
        "per_level_m_with_zeros": make_config(f0=0.97, p=0.99, eta=0.99, m=(2, 0, 1, 0), span=31),
        "m_zero": make_config(p=0.995, eta=0.995, m=0, span=31),
    }

    @staticmethod
    def level_bits(level):
        weights = [w.hex() for pair in (level.b, level.c, level.a) for w in weights_of(pair)]
        helper_q = None if level.helper_q is None else level.helper_q.hex()
        return weights, [q.hex() for q in level.step_probs], helper_q

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
    def test_level_step_rebuilds_every_level(self, cfg):
        # Each level is a function of the A pairs one and two depths below it.
        ladder = Ladder(cfg)
        ladder.pair(cfg.depth)
        assert all(type(ladder.pair(d)) is BellDiagonalState for d in range(cfg.depth + 1))
        for i, level in enumerate(ladder.levels):
            step = level_step(ladder.pair(i), ladder.pair(i - 1) if i else None, cfg, i)
            assert self.level_bits(step) == self.level_bits(level)
            assert all(type(pair) is BellDiagonalState for pair in (step.b, step.c, step.a))

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
    def test_pair_loops_level_step(self, cfg, monkeypatch):
        steps = []
        real = protocol.level_step

        def logged(below, two_below, config, idx):
            steps.append((below, two_below, idx))
            return real(below, two_below, config, idx)

        monkeypatch.setattr(protocol, "level_step", logged)
        ladder = Ladder(cfg)
        ladder.pair(cfg.depth)
        pairs = [ladder.pair(d) for d in range(cfg.depth + 1)]
        assert steps == [(pairs[i], pairs[i - 1] if i else None, i) for i in range(cfg.depth)]


class TestExpectedTimePolynomialGrowth:
    def test_level_ratio_bounded(self):
        times = []
        for span in (3, 7, 15, 31, 63, 127):
            cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=3, span=span,
                              p_em=p_em_for_fidelity(0.98, 10 ** (-0.2)))
            times.append(run_protocol(cfg).total_expected_time)
        ratios = [t2 / t1 for t1, t2 in zip(times, times[1:])]
        assert max(ratios) <= 8.0


class TestMonteCarloTime:
    def test_single_link_geometric_mean(self):
        cfg = make_config(span=1, p_em=0.05, eps_local=0.2)
        prob = entangle_success_prob(0.05, 0.2 * 10 ** (-0.2))
        mc = monte_carlo_time(cfg, seed=5, trials=20_000)
        attempts = mc.mean / cfg.link.attempt_duration_s
        se = mc.std / cfg.link.attempt_duration_s / np.sqrt(mc.n_trials)
        assert abs(attempts - 1.0 / prob) <= 3 * se

    #: (span, seed) -> mean, std and the 0.5 / 0.9 / 0.99 quantiles of 400
    #: trials; they pin the sampler's draw order for each seed.
    PINNED = {
        (3, 3): (0.0402385875, 0.021005501818546636, 0.0346765, 0.0696097, 0.10386872999999992),
        (3, 4): (0.040011994999999995, 0.01995214027476337, 0.0346765, 0.0670348, 0.10346744999999996),
        (7, 3): (0.1618469725, 0.09034085238592938, 0.1298225, 0.27676150000000005, 0.48886643999999957),
        (7, 4): (0.1711257975, 0.10197987442378137, 0.133591, 0.2954414, 0.5592033599999999),
        (15, 3): (0.9007443874999999, 0.4784976971536233, 0.7273185, 1.5816843999999997, 2.4316206799999978),
        (15, 4): (0.929448875, 0.5556736515135979, 0.711961, 1.6177935000000003, 3.1417845499999997),
    }

    @pytest.mark.parametrize("span, seed", sorted(PINNED))
    def test_pinned_per_seed(self, span, seed):
        cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=3, span=span,
                          p_em=p_em_for_fidelity(0.98, 10 ** (-0.2)))
        mc = monte_carlo_time(cfg, seed=seed, trials=400)
        got = (mc.mean, mc.std, mc.quantiles[0.5], mc.quantiles[0.9], mc.quantiles[0.99])
        assert got == pytest.approx(self.PINNED[span, seed], rel=1e-12, abs=0.0)

    #: seed -> SHA-256 of ``samples.tobytes()`` for the benchmark's
    #: ``mc_span31`` config (defaults at span 31, 4,000 trials), recorded in
    #: a separate process at commit 88bfd43, whose sampler had no float path.
    PINNED_SPAN31 = {
        0: "7769a91b318403dbf2b5a0e7e52afbcbb94943d96b3bbdb91556b305d1c26b76",
        1: "31851162d8011849bd7f8395c46d3ffef5ed75da2f6649d2ad96a696e679c63d",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_SPAN31))
    def test_pinned_at_benchmark_scale(self, seed):
        cfg = RunConfig(target_span=31).protocol_config()
        samples = monte_carlo_time(cfg, seed=seed, trials=4_000).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == self.PINNED_SPAN31[seed]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t0, trials", [(1e150, 50), (1e200, 50), (1e300, 50), (1e300, 2)])
    def test_std_of_huge_finite_samples_is_finite(self, t0, trials):
        # numpy squares the deviations, which overflow although the std does not.
        cfg = ProtocolConfig(LinkParams(t0_s=t0), NoiseParams(0.995, 0.995), 3, 7)
        mc = monte_carlo_time(cfg, seed=1, trials=trials)
        assert math.isfinite(mc.std) and math.isfinite(mc.samples.max())
        assert mc.std == pytest.approx(statistics.stdev(mc.samples.tolist()), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("trials", [50, 1])
    def test_overflow_raises_without_warnings(self, trials):
        cfg = ProtocolConfig(LinkParams(t0_s=1e306), NoiseParams(0.995, 0.995), 3, 7)
        with pytest.raises(ProtocolError, match="the sample overflows a float"):
            monte_carlo_time(cfg, seed=1, trials=trials)

    def test_deterministic_for_seed(self):
        cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=1, span=7)
        a = monte_carlo_time(cfg, seed=17, trials=500)
        b = monte_carlo_time(cfg, seed=17, trials=500)
        assert a.mean == b.mean and a.quantiles == b.quantiles

    def test_matches_analytic_within_ten_percent(self):
        for span in (3, 7, 15):
            cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=3, span=span,
                              p_em=p_em_for_fidelity(0.98, 10 ** (-0.2)))
            analytic = run_protocol(cfg).total_expected_time
            mc = monte_carlo_time(cfg, seed=23, trials=10_000)
            assert abs(analytic - mc.mean) / mc.mean <= 0.10

    def test_span_three_single_pump_consistency(self):
        cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=1, span=3,
                          p_em=p_em_for_fidelity(0.98, 10 ** (-0.2)))
        analytic = run_protocol(cfg).total_expected_time
        mc = monte_carlo_time(cfg, seed=29, trials=10_000)
        assert abs(analytic - mc.mean) / mc.mean <= 0.10

    def test_quantiles_ordered(self):
        cfg = make_config(f0=0.98, p=0.995, eta=0.995, m=1, span=7)
        mc = monte_carlo_time(cfg, seed=31, trials=2_000)
        assert mc.quantiles[0.5] <= mc.quantiles[0.9] <= mc.quantiles[0.99]


class CountingGenerator:
    """A numpy Generator (``generator``) that logs each array draw as
    (kind, variates); a geometric draw logs as the exponential draw it is
    made from."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.generator, name)
        kind = "standard_exponential" if name == "geometric" else name

        def logged(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((kind, out.size))
            return out

        setattr(self, name, logged)
        return logged


def reference_monte_carlo_samples(config, rng, trials):
    """The sampler body before its link maxima came from exponentials,
    kept as a test-only reference: ``rng.geometric(...).max(axis=1)``,
    zero-started totals and index arrays for every trial."""
    prob = entangle_success_prob(config.link.p_em, channel_efficiency(config.link))
    unit = config.link.attempt_duration_s
    tc = config.link.classical_time_s
    ladder = Ladder(config)
    ladder.pair(config.depth)
    levels = ladder.levels

    def sample_links(count, racers):
        draws = rng.geometric(prob, size=(count, racers))
        return draws.max(axis=1).astype(float) * unit

    def restarting(sample_base, sample_round, level, probs, count):
        total = np.zeros(count)
        pending = np.arange(count)
        while pending.size:
            attempt = sample_base(level, pending.size)
            live = np.arange(pending.size)
            for q in probs:
                attempt[live] += sample_round(level, live.size) + tc
                live = live[rng.random(live.size) < q]
                if not live.size:
                    break
            total[pending] += attempt
            failed = np.ones(pending.size, dtype=bool)
            failed[live] = False
            pending = pending[failed]
        return total

    def sample_level(level, count):
        if level < 0:
            return sample_links(count, 1)
        return restarting(sample_b, sample_c, level, levels[level].step_probs, count)

    def sample_swapped(level, count):
        if level < 0:
            return sample_links(count, 2) + tc
        return np.maximum(sample_level(level, count), sample_level(level, count)) + tc

    def sample_b(level, count):
        if level == 0:
            return sample_links(count, 3) + tc
        stage = np.maximum(sample_level(level - 1, count), sample_level(level - 1, count))
        return np.maximum(stage, sample_links(count, 1)) + tc

    def sample_c(level, count):
        if level == 0:
            return sample_links(count, 3) + tc
        helper_q = (levels[level].helper_q,)
        stage = np.maximum(
            restarting(sample_swapped, sample_swapped, level - 2, helper_q, count),
            restarting(sample_swapped, sample_swapped, level - 2, helper_q, count),
        )
        return np.maximum(stage, sample_links(count, 3)) + tc

    return sample_level(len(levels) - 1, trials)


def sampler_config(span, m, f0, tc_s):
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.2, p_em=0.05, eps_local=1.0,
        t0_s=1e-6, tc_s=tc_s,
    )
    if isinstance(m, tuple):
        m = m[: nesting_depth(span)]
    return ProtocolConfig(link, NoiseParams(0.999, 0.999), m=m, target_span=span, f0=f0)


@pytest.fixture(scope="class")
def numpy_loaded():
    # The sampler's helpers read protocol.np, which the first
    # monte_carlo_time call fills.
    monte_carlo_time(sampler_config(1, 0, None, None), seed=0, trials=1)


class TestSamplerMatchesGeometricReference:
    # One trial runs on floats, and restarts hand a last trial to them.
    @pytest.mark.parametrize("trials", [1, 2, 3, 40])
    @pytest.mark.parametrize("m", [0, 1, 3, (2, 0, 1, 0)], ids=str)
    @pytest.mark.parametrize("span", [1, 3, 7, 15, 31])
    def test_same_samples_and_draws(self, span, m, trials, monkeypatch):
        gens = []

        def counting_rng(seed):
            gens.append(CountingGenerator(seed))
            return gens[-1]

        counting_np = types.ModuleType(np.__name__)
        vars(counting_np).update(vars(np))
        counting_np.random = types.SimpleNamespace(default_rng=counting_rng)
        monkeypatch.setattr(protocol, "np", counting_np)
        for f0 in (None, 0.98):
            for tc_s in (0.0, None):
                cfg = sampler_config(span, m, f0, tc_s)
                for seed in (1, 2, 3):
                    reference = CountingGenerator(seed)
                    expected = reference_monte_carlo_samples(cfg, reference, trials)
                    got = monte_carlo_time(cfg, seed, trials).samples
                    assert got.tobytes() == expected.tobytes()
                    assert gens[-1].calls == reference.calls
                    assert gens[-1].generator.random() == reference.generator.random()

    @pytest.mark.parametrize("m", [0, 3, (2, 0, 1, 0)], ids=str)
    def test_one_trial_never_reaches_the_array_path(self, m, monkeypatch):
        def no_arrays(*args):
            raise AssertionError("a single trial drew its links as an array")

        monkeypatch.setattr(protocol, "_link_maxima", no_arrays)
        for seed in (1, 2):
            got = monte_carlo_time(sampler_config(31, m, None, None), seed, 1).samples
            assert got.dtype == np.float64 and got.shape == (1,)

    def test_link_draws_use_inversion(self):
        # numpy draws a geometric by inversion of an exponential only for
        # success probabilities below 1/3; a link's is largest at
        # p_em = eps = 1.
        assert entangle_success_prob(1.0, 1.0) < 1 / 3

    @given(
        p=st.floats(1e-12, entangle_success_prob(1.0, 1.0)),
        racers=st.sampled_from([1, 2, 3]),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_link_maxima_match_geometric_maxima(self, numpy_loaded, p, racers, count, seed):
        """The max of racing links' attempt counts, from exponentials, is
        the max of numpy's geometric draws, and leaves the generator in
        the same state.  The forms differ only for counts >= 2^63, which
        numpy clamps to INT64_MAX; p >= 1e-12 keeps counts far below."""
        unit = 1.1e-4
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = old.geometric(p, (count, racers)).max(axis=1).astype(float) * unit
        got = protocol._link_maxima(new, -math.log1p(-p), unit, count, racers)
        assert got.tobytes() == expected.tobytes()
        # The one-trial draw, once per row, gives the same floats and state.
        one = np.random.default_rng(seed)
        rows = [protocol._link_max(one, -math.log1p(-p), unit, racers) for _ in range(count)]
        assert all(type(row) is float for row in rows)
        assert np.array(rows).tobytes() == expected.tobytes()
        assert new.random() == old.random() == one.random()

    BAD_ARGS = {
        "trials-float": ({"seed": 1, "trials": 2.5}, "trials must be an int >= 1"),
        "trials-bool": ({"seed": 1, "trials": True}, "trials must be an int >= 1"),
        "trials-str": ({"seed": 1, "trials": "5"}, "trials must be an int >= 1"),
        "trials-zero": ({"seed": 1, "trials": 0}, "trials must be an int >= 1"),
        "seed-negative": ({"seed": -1, "trials": 5}, "seed must be an int >= 0"),
        "seed-none": ({"seed": None, "trials": 5}, "seed must be an int >= 0"),
        "seed-bool": ({"seed": False, "trials": 5}, "seed must be an int >= 0"),
    }

    @pytest.mark.parametrize("kwargs, message", BAD_ARGS.values(), ids=BAD_ARGS)
    def test_bad_seed_or_trials_rejected_first(self, kwargs, message, monkeypatch):
        # Checked before numpy is loaded into protocol.np and before the
        # ladder is built.
        def no_ladder(config):
            raise AssertionError("ladder built before the arguments were checked")

        monkeypatch.setattr(protocol, "np", None)
        monkeypatch.setattr(protocol, "Ladder", no_ladder)
        with pytest.raises(ValueError, match=message):
            monte_carlo_time(make_config(span=7), **kwargs)
        assert protocol.np is None

    @pytest.mark.parametrize("kwargs, message", BAD_ARGS.values(), ids=BAD_ARGS)
    def test_photon_oracle_rejects_the_same_before_numpy(self, kwargs, message):
        # A fresh interpreter, because numpy once imported stays in sys.modules.
        code = (
            "import sys\nfrom qrepeater.channel import photon_mode_oracle\n"
            f"try:\n    photon_mode_oracle(0.05, 0.5, **{kwargs!r})\n"
            "except ValueError as exc:\n    print(exc)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        error, numpy_loaded = proc.stdout.splitlines()
        assert error.startswith(message) and numpy_loaded == "False"
