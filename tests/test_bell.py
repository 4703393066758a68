"""Bell-diagonal state representation and density-matrix conversions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrepeater.bell import ATOL, BellDiagonalState, fidelity, from_fidelity
from qrepeater.exact import (
    BELL_VECTORS,
    DensityMatrix,
    bell_offdiagonal_norm,
    bell_project,
    to_density,
)


def weights4(draw_sum_one=True):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
    ).filter(lambda w: sum(w) > 1e-6)


class TestBellVectors:
    def test_orthonormal(self):
        gram = BELL_VECTORS.conj() @ BELL_VECTORS.T
        assert np.max(np.abs(gram - np.eye(4))) < ATOL

    def test_singlet_first(self):
        psi_minus = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.allclose(BELL_VECTORS[0], psi_minus)


class TestBellDiagonalState:
    def test_valid_state(self):
        s = BellDiagonalState(0.7, 0.1, 0.1, 0.1)
        assert s.weights.sum() == pytest.approx(1.0, abs=ATOL)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="0, 1"):
            BellDiagonalState(1.1, -0.1, 0.0, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BellDiagonalState(0.5, 0.1, 0.1, 0.1)

    def test_from_weights_renormalises_roundoff(self):
        w = np.array([0.25, 0.25, 0.25, 0.25 + 3e-16])
        s = BellDiagonalState.from_weights(w)
        assert s.weights.sum() == pytest.approx(1.0, abs=ATOL)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteWeights:
    """A NaN state used to construct, and purified with purifiable == True
    and a NaN acceptance probability; from_weights turned NaN and +inf
    weights into an all-NaN state."""

    @pytest.mark.parametrize(
        "w",
        [(NAN, 0.0, 0.0, 1.0), (0.0, NAN, 0.0, 1.0), (INF, 0.0, 0.0, 0.0), (-INF, 1.0, 0.0, 0.0)],
    )
    def test_constructor_rejects(self, w):
        with pytest.raises(ValueError, match=r"Bell weights must .* got \["):
            BellDiagonalState(*w)

    @pytest.mark.parametrize(
        "w",
        [
            [NAN, 1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, NAN],
            [INF, 0.0, 0.0, 0.0],
            [-INF, 1.0, 0.0, 0.0],
            [1e308, 1e308, 0.0, 0.0],  # finite weights, overflowing sum
        ],
    )
    def test_from_weights_rejects(self, w):
        with pytest.raises(ValueError, match=r"Bell weights .* got \["):
            BellDiagonalState.from_weights(w)


class TestErrorMessages:
    """The messages of the checks that predate the non-finite ones, pinned."""

    @pytest.mark.parametrize(
        "w, message",
        [
            ((1.1, -0.1, 0.0, 0.0), "Bell weights must lie in [0, 1], got [1.1, -0.1, 0.0, 0.0]"),
            ((2, 0, 0, 0), "Bell weights must lie in [0, 1], got [2, 0, 0, 0]"),
            ((INF, 0.0, 0.0, 0.0), "Bell weights must lie in [0, 1], got [inf, 0.0, 0.0, 0.0]"),
            (
                (0.5, 0.1, 0.1, 0.1),
                "Bell weights must sum to 1 within 1e-12, got 0.7999999999999999",
            ),
            ((1, 0.5, 0, 0), "Bell weights must sum to 1 within 1e-12, got 1.5"),
        ],
    )
    def test_constructor(self, w, message):
        with pytest.raises(ValueError) as raised:
            BellDiagonalState(*w)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "w, message",
        [
            ([0.5, -0.1, 0.3, 0.3], "Bell weights must be nonnegative, got [0.5, -0.1, 0.3, 0.3]"),
            ([-INF, 1, 0, 0], "Bell weights must be nonnegative, got [-inf, 1.0, 0.0, 0.0]"),
            ([0.0, 0.0, 0.0, 0.0], "Bell weights sum to zero; state undefined"),
            ([-1e-13, 1e-13, 0, 0], "Bell weights sum to zero; state undefined"),
            ([1, 2, 3], "expected 4 Bell weights, got shape (3,)"),
            ([[0.5, 0.5], [0, 0]], "expected 4 Bell weights, got shape (2, 2)"),
            (0.5, "expected 4 Bell weights, got shape ()"),
        ],
    )
    def test_from_weights(self, w, message):
        with pytest.raises(ValueError) as raised:
            BellDiagonalState.from_weights(w)
        assert str(raised.value) == message


class TestFromFidelity:
    def test_perfect_fidelity_puts_all_weight_on_singlet(self):
        s = from_fidelity(1.0, 0.3)
        assert s.weights.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_error_weights_split(self):
        # infidelity 0.01 at upsilon 0.1: phase error 0.008, others 0.001 each
        s = from_fidelity(0.99, 0.1)
        assert s.w_psi_minus == pytest.approx(0.99, abs=ATOL)
        assert s.w_psi_plus == pytest.approx(0.008, abs=ATOL)
        assert s.w_phi_plus == pytest.approx(0.001, abs=ATOL)
        assert s.w_phi_minus == pytest.approx(0.001, abs=ATOL)

    def test_error_weights_split_skewed(self):
        s = from_fidelity(0.97, 0.3)
        assert s.w_psi_plus == pytest.approx(0.012, abs=ATOL)
        assert s.w_phi_plus == pytest.approx(0.009, abs=ATOL)
        assert s.w_phi_minus == pytest.approx(0.009, abs=ATOL)

    def test_round_trip_through_fidelity(self):
        assert fidelity(from_fidelity(0.96, 0.0)) == pytest.approx(0.96, abs=ATOL)

    @pytest.mark.parametrize("bad_f, bad_u", [(-0.1, 0.0), (1.2, 0.0), (0.9, 0.6), (0.9, -0.1)])
    def test_rejects_out_of_range(self, bad_f, bad_u):
        with pytest.raises(ValueError):
            from_fidelity(bad_f, bad_u)

    @given(
        f=st.floats(min_value=0.0, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_always_valid_state(self, f, u):
        s = from_fidelity(f, u)
        w = s.weights
        assert np.all(w >= -ATOL)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


class TestFidelity:
    def test_pure_singlet(self):
        assert fidelity(BellDiagonalState(1.0, 0.0, 0.0, 0.0)) == 1.0

    def test_maximally_mixed(self):
        assert fidelity(BellDiagonalState(0.25, 0.25, 0.25, 0.25)) == 0.25


class TestDensityConversions:
    def test_pure_singlet_projector(self):
        rho = to_density(BellDiagonalState(1.0, 0.0, 0.0, 0.0))
        expected = np.outer(BELL_VECTORS[0], BELL_VECTORS[0].conj())
        assert np.max(np.abs(rho.matrix - expected)) < ATOL

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w = rng.random(4)
            s = BellDiagonalState.from_weights(w)
            back = bell_project(to_density(s))
            assert np.max(np.abs(back.weights - s.weights)) < ATOL

    def test_maximally_mixed_projects_uniform(self):
        s = bell_project(np.eye(4, dtype=complex) / 4.0)
        assert np.max(np.abs(s.weights - 0.25)) < ATOL

    def test_bell_project_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="4x4"):
            bell_project(np.eye(16, dtype=complex) / 16.0)

    def test_offdiagonal_norm_flags_coherences(self):
        psi = (BELL_VECTORS[0] + BELL_VECTORS[1]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert bell_offdiagonal_norm(rho) > 0.4

    @given(w=weights4())
    def test_round_trip_property(self, w):
        s = BellDiagonalState.from_weights(np.array(w))
        back = bell_project(to_density(s))
        assert np.max(np.abs(back.weights - s.weights)) < 1e-10


class TestDensityMatrix:
    def test_accepts_valid(self):
        DensityMatrix(np.eye(4, dtype=complex) / 4.0)

    def test_rejects_nonhermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            DensityMatrix(np.eye(8, dtype=complex) / 8.0)
