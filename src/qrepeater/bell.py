"""Bell-diagonal and exact density-matrix representations of two-qubit entangled states.

The Bell basis is ordered (Psi-, Psi+, Phi+, Phi-) with
Psi+- = (|01> +- |10>)/sqrt(2) and Phi+- = (|00> +- |11>)/sqrt(2).
The target state of every protocol in this package is the singlet Psi-,
so "fidelity" always means the first Bell weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12          # tolerance for algebraic identities (normalisation, hermiticity)
PSD_FLOOR = -1e-10    # eigenvalue floor for positive-semidefiniteness checks

_SQRT2 = np.sqrt(2.0)

#: The four Bell vectors in the computational basis |00>,|01>,|10>,|11>.
#: Row order (Psi-, Psi+, Phi+, Phi-) is the single source of truth for
#: every module in this package.
BELL_VECTORS = np.array(
    [
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
    ],
    dtype=complex,
) / _SQRT2
BELL_VECTORS.setflags(write=False)

BELL_LABELS = ("psi_minus", "psi_plus", "phi_plus", "phi_minus")


@dataclass(frozen=True)
class BellDiagonalState:
    """Probability weights of a two-qubit state over the four Bell states.

    Weights must be finite, in [0, 1] and sum to 1 within ``ATOL``.  The first
    weight is the singlet fidelity.
    """

    w_psi_minus: float
    w_psi_plus: float
    w_phi_plus: float
    w_phi_minus: float

    def __post_init__(self):
        w = (self.w_psi_minus, self.w_psi_plus, self.w_phi_plus, self.w_phi_minus)
        if min(w) < -ATOL or max(w) > 1.0 + ATOL:
            raise ValueError(f"Bell weights must lie in [0, 1], got {self.weights.tolist()}")
        total = _sum4(w)
        if not math.isfinite(total):  # a NaN weight passes the range check
            raise ValueError(f"Bell weights must be finite, got {self.weights.tolist()}")
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"Bell weights must sum to 1 within {ATOL}, got {float(total)!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.array(
            [self.w_psi_minus, self.w_psi_plus, self.w_phi_plus, self.w_phi_minus]
        )

    @classmethod
    def from_weights(cls, w) -> "BellDiagonalState":
        """Build a state from a length-4 weight vector, renormalising away
        float round-off (values clipped to [0, 1], sum rescaled to 1)."""
        w = np.asarray(w, dtype=float)
        if w.shape != (4,):
            raise ValueError(f"expected 4 Bell weights, got shape {w.shape}")
        w = w.tolist()
        if min(w) < -ATOL:
            raise ValueError(f"Bell weights must be nonnegative, got {w}")
        total = _sum4(w)
        if not math.isfinite(total):
            raise ValueError(f"Bell weights and their sum must be finite, got {w}")
        if total <= 0.0:
            raise ValueError("Bell weights sum to zero; state undefined")
        w = [min(max(x / total, 0.0), 1.0) for x in w]
        total = _sum4(w)
        return cls(w[0] / total, w[1] / total, w[2] / total, w[3] / total)


def _sum4(w) -> float:
    """Sum of four weights in numpy's order: left to right from 0.0."""
    return 0.0 + w[0] + w[1] + w[2] + w[3]


@dataclass(frozen=True)
class DensityMatrix:
    """Exact complex density matrix on one, two or four qubits.

    Used as the brute-force representation behind the oracle paths.  The
    matrix must be Hermitian, trace one and positive semidefinite within
    the module tolerances.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] not in (2, 4, 16):
            raise ValueError(f"density matrix dim must be 2, 4 or 16, got {m.shape[0]}")
        if np.max(np.abs(m - m.conj().T)) > ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > ATOL or abs(np.trace(m).imag) > ATOL:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(m)}")
        if np.min(np.linalg.eigvalsh(m)) < PSD_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue beyond the floor")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def from_fidelity(fidelity: float, upsilon: float) -> BellDiagonalState:
    """State with singlet weight F; the infidelity 1-F is split into a phase
    error of weight (1-2*upsilon)(1-F) and Phi+- admixtures of weight
    upsilon*(1-F) each.

    upsilon = 0 gives a pure phase-error state, upsilon = 1/3 a Werner state.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity!r}")
    if not 0.0 <= upsilon <= 0.5:
        raise ValueError(f"upsilon must lie in [0, 0.5], got {upsilon!r}")
    rest = 1.0 - fidelity
    return BellDiagonalState(
        fidelity, (1.0 - 2.0 * upsilon) * rest, upsilon * rest, upsilon * rest
    )


def fidelity(state: BellDiagonalState) -> float:
    """Overlap with the target singlet: the first Bell weight."""
    return state.w_psi_minus


def to_density(state: BellDiagonalState) -> DensityMatrix:
    """Expand a Bell-diagonal state into its exact 4x4 density matrix."""
    w = state.weights
    m = np.einsum("k,ki,kj->ij", w, BELL_VECTORS, BELL_VECTORS.conj())
    return DensityMatrix(m)


def bell_project(rho: DensityMatrix | np.ndarray) -> BellDiagonalState:
    """Diagonal of a 4x4 density matrix in the Bell basis, renormalised.

    Off-diagonal Bell-basis elements are discarded; every map in this
    package preserves Bell diagonality, which the test suite checks
    explicitly rather than assuming.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"bell_project requires a 4x4 matrix, got shape {m.shape}")
    w = np.real(np.einsum("ki,ij,kj->k", BELL_VECTORS.conj(), m, BELL_VECTORS))
    return BellDiagonalState.from_weights(w)


def bell_offdiagonal_norm(rho: DensityMatrix | np.ndarray) -> float:
    """Largest off-diagonal magnitude of a 4x4 matrix in the Bell basis."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    b = BELL_VECTORS.conj() @ m @ BELL_VECTORS.T
    return float(np.max(np.abs(b - np.diag(np.diag(b)))))
