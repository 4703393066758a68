"""Nested protocol: construction rules, closed-form checks, expected-time
models and the discrete-event sampler."""

import hashlib
import itertools
import math
import os
import re
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_noisy_ops import chain_phase_only, dejmps_phase_only

from qrepeater import cli, protocol, timing
from qrepeater.analysis import (
    apply_overrides,
    asymptotic_fidelity,
    fixed_point_at_distance,
    sweep,
)
from qrepeater.bell import BellDiagonalState, fidelity, from_fidelity
from qrepeater.channel import (
    LinkParams,
    channel_efficiency,
    entangle_success_prob,
    p_em_for_fidelity,
    photon_mode_oracle,
)
from qrepeater.config import RunConfig
from qrepeater.ops import NoiseParams, connect_chain
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

    def test_one_span_rule_up_to_2_to_the_41(self):
        for k in range(1, 41):
            assert nesting_depth(2 ** (k + 1) - 1) == k
            assert round_span_up(2**k - 1) == 2**k - 1
            assert round_span_up(2**k) == round_span_up(2 ** (k + 1) - 1) == 2 ** (k + 1) - 1

    @pytest.mark.parametrize("span", [0, -1, -7])
    def test_spans_below_one_rejected(self, span):
        with pytest.raises(ValueError, match=f"^target_span must be >= 1, got {span}$"):
            nesting_depth(span)
        with pytest.raises(ValueError, match=f"^span must be >= 1, got {span}$"):
            round_span_up(span)

    @pytest.mark.parametrize("span", [2, 4, 5, 6, 10, 2**20, 2**40 + 1])
    def test_unschedulable_span_message(self, span):
        message = f"target_span must be of the form 2^k - 1 (1, 3, 7, 15, ...), got {span}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nesting_depth(span)

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

    @pytest.mark.parametrize("m", [3.0, None])
    def test_non_int_scalar_m_is_a_value_error(self, m):
        with pytest.raises(ValueError, match="^m must be an int or one int per level"):
            ProtocolConfig(link=LinkParams(), noise=NoiseParams(), m=m, target_span=15)

    @pytest.mark.parametrize(
        "m, message",
        [
            ((1.0, 2.0, 3.0), r"^m at level 0 must be an int >= 0, got 1\.0$"),
            (("1", "2", "3"), r"^m at level 0 must be an int >= 0, got '1'$"),
            ((1, 2, True), r"^m at level 2 must be an int >= 0, got True$"),
            ((True, 2, 3), r"^m at level 0 must be an int >= 0, got True$"),
            ((1, -1, 3), r"^m at level 1 must be an int >= 0, got -1$"),
            ((1, np.True_, 3), r"^m at level 1 must be an int >= 0, got "),
            (True, r"^m must be an int or one int per level, each >= 0, got True$"),
            (-1, r"^m must be an int or one int per level, each >= 0, got -1$"),
            (np.float64(2.0), r"^m must be an int or one int per level"),
        ],
    )
    def test_each_m_entry_is_a_non_bool_int(self, m, message):
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(link=LinkParams(), noise=NoiseParams(), m=m, target_span=15)

    def test_numpy_integer_m_is_accepted_as_int(self):
        scalar, per_level = (
            ProtocolConfig(link=LinkParams(), noise=NoiseParams(), m=m, target_span=15)
            for m in (np.int64(2), np.array([1, 2, 3]))
        )
        assert scalar.m == 2 and type(scalar.m) is int
        assert per_level.m == (1, 2, 3) and {type(mi) for mi in per_level.m} == {int}


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
        # A pinned f0 splits its infidelity by upsilon like a derived one.
        assert Ladder(make_config(f0=0.95, upsilon=0.2)).pair(0) == from_fidelity(0.95, 0.2)


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
        message = "unpurifiable pump step 1: acceptance probability 0.000e+00"
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            pump(b, c, 3, cfg)
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
        weights = [w.hex() for pair in (level.b, level.c, level.a) for w in pair]
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

    #: config -> per level, the SHA-256 of its B, C and A weights as
    #: ``float.hex``, space-joined, recorded from a separate process at
    #: 88ad1dc.  A nonzero upsilon lets the order of C's parts move bits,
    #: which the default upsilon = 0 does not.
    LEVEL_WEIGHTS = {
        "upsilon_0.3": (RunConfig(upsilon=0.3, target_span=63), (
            "19f5b947acd137d00b9d7652b422898f123286f66b6ddca1c478091a3688a672",
            "a2040f992b064461463d806a73c19a06fb19c82f95faa3f898271cb9c98c492f",
            "a1b3b8d6d1b252662a514735b40d0411fd463bf3456a6ad6935d23c84e2e7fe1",
            "581a6d9d76bf6d7883031b9c5fde232603a968410058018b3fdc6b2758047d17",
            "4e78b1978fb34d85f14d2e3de7664061a67bdc23883e669e19c318f73ddb37d2",
        )),
        "f0_0.97_upsilon_0.1_m_2": (RunConfig(f0=0.97, upsilon=0.1, m=2, target_span=63), (
            "d61b3c0e1553128efc31ecc435947716720dcfdbb7f14ea959771b8bef15aeb4",
            "adca3dba909a38f36940c3a9e36d1daf77914d90ae77845069b61b61a1e5b777",
            "d977942490cc88392e09c01a345f156908c95ae05376a8a583acc67315dfefb1",
            "ba7a7baf1eb6eb70c90c349d0ca5e6b4324ef75bfd4d89705d2ff6839da4fce2",
            "cd0550dfc35ff555e03b2426e8bf59e28e8f44f1251e031e9047d2f22a1956bf",
        )),
    }

    @pytest.mark.parametrize("name", LEVEL_WEIGHTS)
    def test_level_weights_pinned_to_depth_5(self, name):
        run_config, pinned = self.LEVEL_WEIGHTS[name]
        ladder = Ladder(run_config.protocol_config())
        ladder.pair(5)
        got = tuple(
            hashlib.sha256(" ".join(self.level_bits(level)[0]).encode()).hexdigest()
            for level in ladder.levels
        )
        assert got == pinned

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


class TestOneFold:
    """The waiting-time process is written once, in ``Ladder.fold``; the
    moments and the sampler are two algebras folded over it."""

    CFG = make_config(f0=0.98, p=0.995, eta=0.995, m=2, span=15)

    @classmethod
    def strings(cls):
        """A toy algebra whose values record each operation as text."""
        tc = cls.CFG.link.classical_time_s

        def race(pairs, links, wait):
            assert wait in (tc, 0.0)
            racers = [*pairs, f"L{links}"] if links else pairs
            text = racers[0] if len(racers) == 1 else f"max({', '.join(racers)})"
            return f"{text}+tc" if wait else text

        def restart(base, round_, wait, probs):
            assert wait == tc
            return f"restart({base}; {round_}; {len(probs)} rounds)"

        return race, restart

    def test_structure_of_depths_0_to_3(self):
        ladder, values = Ladder(self.CFG), []
        depth_0 = "L1"
        # Level 0: B and C fodder each race three links; B and the round are
        # both a shift of three racing links, which the sampler draws in one call.
        depth_1 = "restart(L3+tc; L3+tc; 2 rounds)"
        # Level 1: the helpers restart on two racing links, shifted, as base and round.
        helper_1 = "restart(L2+tc; L2+tc; 1 rounds)"
        depth_2 = (
            f"restart(max({depth_1}, {depth_1}, L1)+tc;"
            f" max({helper_1}, {helper_1}, L3)+tc; 2 rounds)"
        )
        # Level 2: the helpers swap two depth-1 pairs.
        half_2 = f"max({depth_1}, {depth_1})+tc"
        helper_2 = f"restart({half_2}; {half_2}; 1 rounds)"
        depth_3 = (
            f"restart(max({depth_2}, {depth_2}, L1)+tc;"
            f" max({helper_2}, {helper_2}, L3)+tc; 2 rounds)"
        )
        assert ladder.fold(self.strings(), values, 2) == depth_2
        assert values == [depth_0, depth_1, depth_2]
        assert len(ladder.levels) == 2
        assert ladder.fold(self.strings(), values, 3) == depth_3
        assert ladder.fold(self.strings(), values, 1) == depth_1
        assert values == [depth_0, depth_1, depth_2, depth_3]

    def test_builders_and_fold_read_one_recipe(self, monkeypatch):
        # Dropping one helper from C's part list changes both the C state and
        # C's race in the fold: the two sides read one recipe, by name.
        cfg = self.CFG
        inner, elem = Ladder(cfg).pair(1), cfg.elementary_state
        full_c = build_c_pair(inner, cfg)
        full_text = Ladder(cfg).fold(self.strings(), [], 2)
        full_a = Ladder(cfg).pair(2)
        monkeypatch.setattr(
            protocol, "_c_parts",
            lambda helper, link: [link] * 3 if helper is None else [link, helper, link, link],
        )
        short_c = build_c_pair(inner, cfg)
        assert short_c == connect_chain([elem, inner, elem, elem], cfg.noise) != full_c
        depth_1 = "restart(L3+tc; L3+tc; 2 rounds)"
        helper_1 = "restart(L2+tc; L2+tc; 1 rounds)"
        short_text = (
            f"restart(max({depth_1}, {depth_1}, L1)+tc; max({helper_1}, L3)+tc; 2 rounds)"
        )
        assert Ladder(cfg).fold(self.strings(), [], 2) == short_text != full_text
        assert Ladder(cfg).pair(2) != full_a  # level_step reads it through build_c_pair

    def test_restarts_read_the_levels_probabilities(self):
        seen = []
        race, _ = self.strings()

        def restart(base, round_, wait, probs):
            seen.append(tuple(probs))
            return "r"

        ladder = Ladder(self.CFG)
        ladder.fold((race, restart), [], 3)
        l0, l1, l2 = ladder.levels
        expected = [l0.step_probs, (l1.helper_q,), l1.step_probs, (l2.helper_q,), l2.step_probs]
        assert seen == expected

    def test_time_and_sampler_each_fold_once(self, monkeypatch):
        calls = []
        real = Ladder.fold

        def spy(ladder, algebra, values, depth):
            calls.append(depth)
            return real(ladder, algebra, values, depth)

        monkeypatch.setattr(Ladder, "fold", spy)
        ladder = Ladder(self.CFG)
        assert ladder.time(3) == ladder.time(3)
        assert calls == [3, 3]
        calls.clear()
        monte_carlo_time(self.CFG, seed=1, trials=20)
        assert calls == [3]

    def test_sampler_draws_only_what_the_fold_returns(self, monkeypatch):
        monkeypatch.setattr(Ladder, "fold", lambda *args: lambda count: np.full(count, 7.0))
        dist = monte_carlo_time(self.CFG, seed=1, trials=5)
        assert dist.samples.tolist() == [7.0] * 5 and dist.std == 0.0

    def test_moments_read_patched_names_when_a_ladder_first_times(self, monkeypatch):
        restarts = []
        real = protocol.restarting_rounds

        def counted(*args):
            restarts.append(args)
            return real(*args)

        ladder = Ladder(self.CFG)
        monkeypatch.setattr(protocol, "restarting_rounds", counted)
        ladder.time(2)
        assert len(restarts) == 3

    def test_moments_race_any_number_of_links(self, monkeypatch):
        # A recipe whose level-0 C races four links: the moments compute
        # k = 4 on its first request, and the sampler draws the same recipe.
        monkeypatch.setattr(
            protocol, "_c_parts",
            lambda helper, link: [link] * 4 if helper is None else [link, helper, link, helper, link],
        )
        cfg, tc = self.CFG, self.CFG.link.classical_time_s
        ladder = Ladder(cfg)
        assert ladder.fold(self.strings(), [], 1) == "restart(L3+tc; L4+tc; 2 rounds)"
        prob, unit = protocol._link_prob_and_unit(cfg)
        b, c = (timing.max_of_geometric(k, prob, unit).shifted(tc) for k in (3, 4))
        step_probs = list(ladder.levels[0].step_probs)
        assert ladder.time(1) == timing.restarting_rounds(b, c, tc, step_probs)
        assert 0.0 < ladder.time(2).mean < math.inf
        assert monte_carlo_time(cfg, seed=1, trials=20).n_trials == 20


class TestLinkTimeOverflow:
    MESSAGE = "expected time overflows a float at the elementary link"

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


@pytest.fixture
def time_calls(monkeypatch):
    """Counts the moment-algebra calls the protocol makes; ``max_all``
    folds ``max_pair``, which it looks up in ``timing``."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(timing, "max_pair", counted("max_pair", timing.max_pair))
    for name in ("restarting_rounds", "max_of_geometric"):
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    return calls


class TestReadersComputeOnlyTheTimesTheyRead:
    README_AXES = {"f0": [0.96, 0.97, 0.98, 0.99, 1.0], "target_span": [3, 7, 15, 31, 63, 127]}

    def test_fixed_points_asymptote_and_sampler_compute_none(self, time_calls):
        cfg = RunConfig(f0=0.98, target_span=15).protocol_config()
        assert asymptotic_fidelity(cfg).converged
        assert fixed_point_at_distance(cfg, 15).converged
        assert monte_carlo_time(cfg, seed=3, trials=50).n_trials == 50
        assert not time_calls

    def test_readme_sweep_times_its_rows_depths_only(self, time_calls):
        base = RunConfig(tc_s=70e-6).protocol_config()
        rows = sweep(base, self.README_AXES)
        assert all(row["error"] == "" for row in rows)
        in_sweep = Counter(time_calls)
        assert in_sweep["max_pair"] and in_sweep["restarting_rounds"]
        time_calls.clear()
        # Each f0's ladder is timed up to its deepest row, span 127, and no deeper.
        deepest = nesting_depth(max(self.README_AXES["target_span"]))
        for f0 in self.README_AXES["f0"]:
            Ladder(apply_overrides(base, f0=f0)).time(deepest)
        assert in_sweep == time_calls


class TestErrorPaths:
    P_ZERO = "elementary link never succeeds (P = 0)"

    def test_p_zero_link_with_pinned_f0_fails_every_reader(self):
        cfg = ProtocolConfig(LinkParams(l0_km=5000.0), NoiseParams(), 3, 7, f0=0.9)
        for read in (
            lambda: fixed_point_at_distance(cfg, 7),
            lambda: asymptotic_fidelity(cfg),
            lambda: monte_carlo_time(cfg, seed=0, trials=10),
            lambda: run_protocol(cfg),
        ):
            with pytest.raises(ProtocolError, match=re.escape(self.P_ZERO)):
                read()
        (row,) = sweep(cfg, {"target_span": [7]})
        assert row["error"] == self.P_ZERO and row["expected_time_s"] is None

    def test_negative_depth_rejected(self):
        ladder = Ladder(RunConfig(target_span=7).protocol_config())
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            ladder.time(-1)
        assert ladder.levels == []

    def test_headline_overflow_names_its_level_and_builds_no_level_past_it(
        self, monkeypatch, capsys
    ):
        built = []
        real = protocol.build_b_pair

        def logged(a_left, a_right, config):
            built.append(a_left)
            return real(a_left, a_right, config)

        monkeypatch.setattr(protocol, "build_b_pair", logged)
        assert cli.main(["headline", "--distance-km", "1e80"]) == 2
        assert "expected time overflows a float at level 208" in capsys.readouterr().err
        # Levels 0..208, each once: a ladder builds its levels in order.
        assert len(built) == 209


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


def merged(calls):
    """A draw log with adjacent calls of one kind merged into one, their
    variates summed: numpy fills a draw one variate after another, so two
    logs that merge to the same list take the same stream."""
    groups = itertools.groupby(calls, key=lambda call: call[0])
    return [(kind, sum(size for _, size in group)) for kind, group in groups]


def reference_monte_carlo_samples(config, rng, trials):
    """The sampler as a plain array algebra folded by ``Ladder.fold``, as it
    was before its link maxima came from exponentials: a race takes
    ``rng.geometric(...).max(axis=1)`` for its links, a restart zero-started
    totals and index arrays for every trial."""
    prob = entangle_success_prob(config.link.p_em, channel_efficiency(config.link))
    unit = config.link.attempt_duration_s

    def race(pairs, links, wait):
        def draw(count):
            racers = [x(count) for x in pairs]  # in chain order, then the links
            if links:
                racers.append(rng.geometric(prob, (count, links)).max(axis=1) * unit)
            return np.maximum.reduce(racers) + wait
        return draw

    def restart(base, round_, tc, probs):
        def draw(count):
            total = np.zeros(count)
            pending = np.arange(count)
            while pending.size:
                attempt = base(pending.size)
                live = np.arange(pending.size)
                for q in probs:
                    attempt[live] += round_(live.size) + tc
                    live = live[rng.random(live.size) < q]
                    if not live.size:
                        break
                total[pending] += attempt
                failed = np.ones(pending.size, dtype=bool)
                failed[live] = False
                pending = pending[failed]
            return total
        return draw

    return Ladder(config).fold((race, restart), [], config.depth)(trials)


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
    """The sampler's float paths, merged draws and tail hand-offs against a
    plain array algebra on the same fold, draw for draw."""

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
                    assert merged(gens[-1].calls) == merged(reference.calls)
                    assert gens[-1].generator.random() == reference.generator.random()
                    # A level-0 or helper attempt draws its base and first round in one call.
                    if span >= 3 and m != 0:
                        calls = [
                            sum(kind == "standard_exponential" for kind, _ in log)
                            for log in (gens[-1].calls, reference.calls)
                        ]
                        assert calls[0] < calls[1]

    @pytest.mark.parametrize("m", [0, 3, (2, 0, 1, 0)], ids=str)
    def test_one_trial_never_reaches_the_array_path(self, m, monkeypatch):
        def no_arrays(*args):
            raise AssertionError("a single trial drew its links as an array")

        monkeypatch.setattr(protocol, "_link_maxima", no_arrays)
        for seed in (1, 2):
            got = monte_carlo_time(sampler_config(31, m, None, None), seed, 1).samples
            assert got.dtype == np.float64 and got.shape == (1,)

    def test_level_0_and_helper_attempts_draw_pairs(self, monkeypatch):
        # The draw counts above see a lost level-0 merge, not a lost helper one.
        pair, racers = protocol._link_max_pair, []

        def spy(rng, rate, unit, k):
            racers.append(k)
            return pair(rng, rate, unit, k)

        monkeypatch.setattr(protocol, "_link_max_pair", spy)
        monte_carlo_time(sampler_config(7, 1, None, None), 1, 1)
        assert set(racers) == {2, 3}

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

    @given(
        p=st.floats(1e-12, entangle_success_prob(1.0, 1.0)),
        racers=st.sampled_from([1, 2, 3]),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_one_draw_equals_two(self, numpy_loaded, p, racers, count, seed):
        """The merged draw of an attempt's base and first round: one call
        for 2 * count trials gives the two calls' maxima, rows in order,
        and leaves the generator in the same state; so does the one-trial
        pair on floats."""
        rate, unit = -math.log1p(-p), 1.1e-4
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        both = protocol._link_maxima(one, rate, unit, 2 * count, racers)
        halves = [protocol._link_maxima(two, rate, unit, count, racers) for _ in range(2)]
        assert both.tobytes() == np.concatenate(halves).tobytes()
        assert one.random() == two.random()
        pair_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pair = protocol._link_max_pair(pair_rng, rate, unit, racers)
        singles = tuple(protocol._link_max(single_rng, rate, unit, racers) for _ in range(2))
        assert all(type(t) is float for t in pair)
        assert np.array(pair).tobytes() == np.array(singles).tobytes()
        assert pair_rng.random() == single_rng.random()

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

    # numpy's integers are ints; its bools and floats are not.
    NUMPY_BAD_ARGS = {
        "trials-numpy-bool": ({"seed": 1, "trials": np.True_}, "trials must be an int >= 1"),
        "trials-numpy-float": ({"seed": 1, "trials": np.float64(5)}, "trials must be an int >= 1"),
        "seed-numpy-bool": ({"seed": np.False_, "trials": 5}, "seed must be an int >= 0"),
        "seed-numpy-negative": ({"seed": np.int64(-1), "trials": 5}, "seed must be an int >= 0"),
    }

    @pytest.mark.parametrize("kwargs, message", NUMPY_BAD_ARGS.values(), ids=NUMPY_BAD_ARGS)
    def test_numpy_bools_floats_and_negatives_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            monte_carlo_time(make_config(span=7), **kwargs)
        with pytest.raises(ValueError, match=message):
            photon_mode_oracle(0.05, 0.5, **kwargs)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_sample_as_ints(self, integer):
        cfg = make_config(span=7)
        got = monte_carlo_time(cfg, seed=integer(1), trials=integer(10))
        want = monte_carlo_time(cfg, seed=1, trials=10)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert type(got.n_trials) is int
        oracle = photon_mode_oracle(0.1, 1.0, trials=integer(200), seed=integer(3))
        assert repr(oracle) == repr(photon_mode_oracle(0.1, 1.0, trials=200, seed=3))
