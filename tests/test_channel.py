"""Lossy-link closed forms and the photon-mode Monte Carlo check."""

import math

import pytest

from qrepeater.channel import (
    LinkParams,
    channel_efficiency,
    entangle_success_prob,
    expected_link_time,
    initial_fidelity,
    link_state,
    p_em_for_fidelity,
    photon_mode_oracle,
)

TOL = 1e-12


class TestLinkParams:
    def test_default_tc_from_segment_length(self):
        link = LinkParams(l0_km=20.0)
        assert link.classical_time_s == pytest.approx(20e3 / 2e8, abs=TOL)
        # A copy with another segment length derives its own.
        assert link._replace(l0_km=40.0).classical_time_s == pytest.approx(40e3 / 2e8, abs=TOL)

    def test_explicit_tc_kept(self):
        link = LinkParams(l0_km=20.0, tc_s=70e-6)
        assert link.tc_s == link.classical_time_s == 70e-6
        assert link._replace(l0_km=40.0).classical_time_s == 70e-6

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"l0_km": 0.0}, "l0_km"),
            ({"attenuation_db_per_km": -0.1}, "attenuation_db_per_km"),
            ({"p_em": 0.0}, "p_em"),
            ({"p_em": 1.5}, "p_em"),
            ({"eps_local": 0.0}, "eps_local"),
            ({"t0_s": -1.0}, "t0_s"),
            ({"tc_s": -1.0}, "tc_s"),
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            LinkParams(**kwargs)


class TestChannelEfficiency:
    def test_lossless_fiber(self):
        link = LinkParams(l0_km=10.0, attenuation_db_per_km=0.0, eps_local=0.7)
        assert channel_efficiency(link) == pytest.approx(0.7, abs=TOL)

    def test_twenty_km_at_standard_loss(self):
        link = LinkParams(l0_km=20.0, attenuation_db_per_km=0.2, eps_local=0.3)
        assert channel_efficiency(link) == pytest.approx(0.3 * 10 ** (-0.2), abs=TOL)

    def test_unit_collection(self):
        link = LinkParams(l0_km=20.0, attenuation_db_per_km=0.2, eps_local=1.0)
        assert channel_efficiency(link) == pytest.approx(10 ** (-0.2), abs=TOL)


class TestSuccessProb:
    def test_vanishing_emission(self):
        assert entangle_success_prob(0.0, 0.5) == 0.0

    def test_closed_form_values(self):
        assert entangle_success_prob(0.05, 0.2) == pytest.approx(
            0.5 * (1 - math.exp(-0.005)), abs=TOL
        )
        assert entangle_success_prob(0.08, 1.0) == pytest.approx(
            0.5 * (1 - math.exp(-0.04)), abs=TOL
        )

    def test_small_argument_expansion(self):
        for p_em in (0.01, 0.05, 0.1):
            for eps in (0.1, 0.5, 1.0):
                prob = entangle_success_prob(p_em, eps)
                assert abs(prob - eps * p_em / 4) <= (eps * p_em) ** 2

    def test_monotone_in_both_arguments(self):
        grid = [0.01, 0.05, 0.1, 0.5, 1.0]
        for eps in grid:
            vals = [entangle_success_prob(pe, eps) for pe in grid]
            assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))
        for pe in grid:
            vals = [entangle_success_prob(pe, eps) for eps in grid]
            assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))


class TestInitialFidelity:
    def test_unit_efficiency_is_perfect(self):
        for p_em in (0.01, 0.3, 1.0):
            assert initial_fidelity(p_em, 1.0) == pytest.approx(1.0, abs=TOL)

    def test_closed_form_values(self):
        assert initial_fidelity(0.08, 0.0) == pytest.approx(
            0.5 * (1 + math.exp(-0.08)), abs=TOL
        )
        assert initial_fidelity(0.05, 0.2) == pytest.approx(
            0.5 * (1 + math.exp(-0.04)), abs=TOL
        )

    def test_small_emission_expansion(self):
        for p_em in (0.01, 0.05, 0.1):
            for eps in (0.1, 0.5, 1.0):
                f0 = initial_fidelity(p_em, eps)
                assert abs(f0 - (1 - p_em * (1 - eps) / 2)) <= p_em**2

    def test_monotonicity(self):
        grid = [0.05, 0.2, 0.5, 0.9]
        for eps in grid:
            vals = [initial_fidelity(pe, eps) for pe in grid]
            assert all(a >= b - TOL for a, b in zip(vals, vals[1:]))
        for pe in grid:
            vals = [initial_fidelity(pe, eps) for eps in grid]
            assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))

    def test_inverse(self):
        for f0 in (0.96, 0.98, 0.995):
            for eps in (0.0, 0.2, 0.6):
                p_em = p_em_for_fidelity(f0, eps)
                assert initial_fidelity(p_em, eps) == pytest.approx(f0, abs=1e-12)


class TestExpectedLinkTime:
    def test_pure_communication_time(self):
        # P such that T0 = (0 + 70us) / 0.0025 = 28 ms
        link = LinkParams(l0_km=20.0, t0_s=0.0, tc_s=70e-6, p_em=0.05, eps_local=0.2,
                          attenuation_db_per_km=0.0)
        prob = entangle_success_prob(0.05, 0.2)
        assert expected_link_time(link) == pytest.approx(70e-6 / prob, abs=1e-15)

    def test_composed_value(self):
        link = LinkParams(l0_km=20.0, attenuation_db_per_km=0.0, p_em=0.05,
                          eps_local=0.2, t0_s=1e-6, tc_s=70e-6)
        prob = 0.5 * (1 - math.exp(-0.005))
        assert expected_link_time(link) == pytest.approx(71e-6 / prob, rel=1e-12)


class TestLinkState:
    def test_vanishing_emission_is_singlet(self):
        s = link_state(1e-15, 0.5, 0.0)
        assert s.w_psi_minus == pytest.approx(1.0, abs=1e-12)

    def test_phase_only(self):
        s = link_state(0.05, 0.2, 0.0)
        f0 = initial_fidelity(0.05, 0.2)
        assert s.w_psi_minus == pytest.approx(f0, abs=TOL)
        assert s.w_psi_plus == pytest.approx(1 - f0, abs=TOL)
        assert s.w_phi_plus == 0.0

    def test_mixed_error_types(self):
        s = link_state(0.05, 0.2, 0.2)
        f0 = initial_fidelity(0.05, 0.2)
        assert s.w_psi_plus == pytest.approx(0.6 * (1 - f0), abs=TOL)
        assert s.w_phi_plus == pytest.approx(0.2 * (1 - f0), abs=TOL)
        assert s.w_phi_minus == pytest.approx(0.2 * (1 - f0), abs=TOL)


class TestPhotonModeOracle:
    def test_unit_efficiency_fidelity_exact(self):
        est = photon_mode_oracle(0.1, 1.0, trials=20_000, seed=1)
        assert est.f0_hat == 1.0

    def test_success_prob_converges(self):
        est = photon_mode_oracle(0.05, 0.2, trials=1_000_000, seed=2)
        expected = entangle_success_prob(0.05, 0.2)
        assert abs(est.p_hat - expected) <= max(3 * est.p_se, 1e-3)

    def test_fidelity_converges(self):
        est = photon_mode_oracle(0.1, 0.5, trials=1_000_000, seed=3)
        expected = initial_fidelity(0.1, 0.5)
        assert abs(est.f0_hat - expected) <= max(3 * est.f0_se, 1e-3)

    def test_deterministic_for_fixed_seed(self):
        a = photon_mode_oracle(0.05, 0.5, trials=50_000, seed=99)
        b = photon_mode_oracle(0.05, 0.5, trials=50_000, seed=99)
        assert (a.p_hat, a.f0_hat) == (b.p_hat, b.f0_hat)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            photon_mode_oracle(0.05, 0.5, trials=0, seed=1)
