"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success)."""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

import qrepeater as qr
from qrepeater.analysis import asymptotic_fidelity, fixed_point_at_distance
from qrepeater.bell import BellDiagonalState, fidelity, from_fidelity
from qrepeater.channel import (
    entangle_success_prob,
    initial_fidelity,
    p_em_for_fidelity,
    photon_mode_oracle,
)
from qrepeater.cli import main
from qrepeater.exact import purify_oracle, swap_oracle
from qrepeater.ops import NoiseParams, connect_chain, purify, swap
from qrepeater.protocol import LinkParams, ProtocolConfig, monte_carlo_time, run_protocol

EXACT = 1e-12

REPLICATION_EPS = 10 ** (-0.2)  # 20 km at 0.2 dB/km with unit local efficiency


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


def replication_config(f0, m=3, span=15, p=0.995, eta=0.995, upsilon=0.0):
    """Protocol config at the standard replication link with the initial
    fidelity pinned through the emission probability."""
    if f0 is not None and f0 < 1.0:
        p_em = p_em_for_fidelity(f0, REPLICATION_EPS)
    else:
        p_em = 0.05
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.2, p_em=p_em, eps_local=1.0,
        t0_s=1e-6, tc_s=70e-6,
    )
    return ProtocolConfig(
        link=link, noise=NoiseParams(p, eta, upsilon), m=m, target_span=span, f0=f0
    )


def test_criterion_1_link_closed_forms_vs_photon_oracle():
    with criterion(1, "link closed forms vs photon-mode Monte Carlo"):
        start = time.monotonic()
        trials = 1_000_000
        for i, (p_em, eps) in enumerate(
            itertools.product((0.01, 0.05, 0.1), (0.1, 0.5, 1.0))
        ):
            est = photon_mode_oracle(p_em, eps, trials=trials, seed=1000 + i)
            p_expected = entangle_success_prob(p_em, eps)
            f_expected = initial_fidelity(p_em, eps)
            assert abs(est.p_hat - p_expected) <= max(3 * est.p_se, 1e-3), (p_em, eps)
            f_se = est.f0_se if math.isfinite(est.f0_se) else 0.0
            assert abs(est.f0_hat - f_expected) <= max(3 * f_se, 1e-3), (p_em, eps)
        assert time.monotonic() - start < 60.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "fast purify/swap match the 16x16 oracle to 1e-12"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        pairs = [
            (
                BellDiagonalState.from_weights(rng.random(4)),
                BellDiagonalState.from_weights(rng.random(4)),
            )
            for _ in range(200)
        ]
        grid = [1.0, 0.999, 0.99, 0.95]
        worst = 0.0
        for (a, b), p, eta in itertools.product(pairs, grid, grid):
            noise = NoiseParams(p, eta)
            fast = purify(a, b, noise)
            oracle = purify_oracle(a, b, noise)
            worst = max(worst, abs(fast.success_prob - oracle.success_prob))
            worst = max(
                worst, float(np.max(np.abs(fast.state.weights - oracle.state.weights)))
            )
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(swap(a, b, noise).weights - swap_oracle(a, b, noise).weights)
                    )
                ),
            )
        assert worst < EXACT
        assert time.monotonic() - start < 60.0


def test_criterion_3_phase_only_closed_forms():
    with criterion(3, "phase-only purify and swap-chain closed forms"):
        ideal = NoiseParams(1.0, 1.0)
        for f in (0.9, 0.95, 0.99):
            s = from_fidelity(f, 0.0)
            out = purify(s, s, ideal)
            accept = f * f + (1 - f) * (1 - f)
            assert abs(out.success_prob - accept) < EXACT
            assert abs(fidelity(out.state) - f * f / accept) < EXACT
            for n in (2, 3, 4, 15):
                chained = connect_chain([s] * n, ideal)
                assert abs(fidelity(chained) - (1 + (2 * f - 1) ** n) / 2) < EXACT


def test_criterion_4_perfect_world_identity():
    with criterion(4, "p = eta = 1 and F0 = 1 give fidelity exactly 1"):
        link = LinkParams(
            l0_km=20.0, attenuation_db_per_km=0.0, p_em=0.1, eps_local=1.0,
            t0_s=1e-6, tc_s=70e-6,
        )
        for m in (0, 1, 3):
            for span in (3, 7, 15, 31, 63, 127):
                cfg = ProtocolConfig(
                    link=link, noise=NoiseParams(1.0, 1.0, 0.0), m=m, target_span=span
                )
                result = run_protocol(cfg)
                assert abs(fidelity(result.final) - 1.0) < EXACT, (m, span)


def test_criterion_5_fidelity_curves_ordered_saturating_and_bracketed():
    with criterion(5, "fidelity-vs-span curves: ordered, saturating, bracketed"):
        start = time.monotonic()
        f0_grid = (0.96, 0.97, 0.98, 0.99, 1.0)
        spans = (3, 7, 15, 31, 63, 127)
        curves = {}
        for f0 in f0_grid:
            fids, fps = [], []
            for span in spans:
                cfg = replication_config(f0, span=span)
                fids.append(fidelity(run_protocol(cfg).final))
                fps.append(fixed_point_at_distance(cfg, span).value)
            asym = asymptotic_fidelity(replication_config(f0, span=127))
            curves[f0] = (fids, fps, asym.value)
        # (a) strict ordering by F0 at every span
        for i, span in enumerate(spans):
            column = [curves[f0][0][i] for f0 in f0_grid]
            assert all(a < b for a, b in zip(column, column[1:])), span
        for f0 in f0_grid:
            fids, fps, f_inf = curves[f0]
            # (b) saturation between spans 31 and 127
            assert fids[3] - fids[5] <= 0.02, f0
            # (c) bounded above by the fixed point, approached from below
            # by the asymptote
            assert all(f <= fp + 1e-9 for f, fp in zip(fids, fps)), f0
            assert fids[5] >= f_inf - 1e-2, f0
        assert time.monotonic() - start < 300.0


def test_criterion_6_polynomial_time_and_monte_carlo_agreement():
    with criterion(6, "polynomial time growth; analytic vs Monte Carlo"):
        times = {}
        for span in (3, 7, 15, 31, 63, 127):
            cfg = replication_config(0.98, span=span)
            times[span] = run_protocol(cfg).total_expected_time
        spans = sorted(times)
        ratios = [times[b] / times[a] for a, b in zip(spans, spans[1:])]
        assert max(ratios) <= 8.0, ratios
        for span in (3, 7, 15):
            cfg = replication_config(0.98, span=span)
            mc = monte_carlo_time(cfg, seed=606, trials=10_000)
            assert abs(times[span] - mc.mean) / mc.mean <= 0.10, span


def test_criterion_7_asymptote_tolerates_arbitrary_error_types():
    with criterion(7, "asymptote nonincreasing in upsilon, above 0.5"):
        values = []
        for upsilon in (0.0, 0.1, 0.2, 0.3):
            cfg = replication_config(0.99, span=15, upsilon=upsilon)
            values.append(asymptotic_fidelity(cfg).value)
        assert all(a + 1e-9 >= b for a, b in zip(values, values[1:])), values
        assert all(v > 0.5 for v in values), values


def test_criterion_8_headline_thousand_km_scenario():
    with criterion(8, "1000 km scenario: F >= 0.75 in seconds-scale time"):
        link = LinkParams(
            l0_km=20.0, attenuation_db_per_km=0.2, p_em=0.08, eps_local=0.5,
            t0_s=1e-6, tc_s=70e-6,
        )
        eps = qr.channel_efficiency(link)
        assert eps >= 0.2  # the declared collection efficiency
        span = qr.round_span_up(math.ceil(1000.0 / 20.0))
        assert span == 63
        cfg = ProtocolConfig(
            link=link, noise=NoiseParams(0.995, 0.995, 0.0), m=1, target_span=span
        )
        result = run_protocol(cfg)
        assert fidelity(result.final) >= 0.75
        # within one order of magnitude of a few seconds
        assert 0.3 <= result.total_expected_time <= 30.0


def test_criterion_9_byte_identical_csv(tmp_path):
    with criterion(9, "identical config and seed give byte-identical CSV"):
        cases = [
            ["simulate", "--target-span", "15", "--f0", "0.98", "--tc-s", "70e-6"],
            ["link", "--oracle", "--trials", "200000", "--seed", "42"],
            ["sweep", "--axis", "upsilon=0,0.1", "--target-span", "7", "--f0", "0.99"],
            ["headline"],
            ["fixed-point", "--target-span", "7", "--f0", "0.98"],
        ]
        for i, args in enumerate(cases):
            first = tmp_path / f"{i}_a.csv"
            second = tmp_path / f"{i}_b.csv"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), args
