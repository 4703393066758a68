"""Exact density matrices and the brute-force 16x16 path for the noisy
protocol primitives.

Everything here works on exact complex matrices and exists to check the
fast Bell-weight recurrences in :mod:`qrepeater.ops`; nothing in the
protocol layer or the CLI calls it.  Qubit 0 is the leftmost tensor
factor.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .bell import ATOL, BellDiagonalState, Checked
from .ops import MIN_SUCCESS_PROB, NoiseParams, PurifyOutcome

PSD_FLOOR = -1e-10    # eigenvalue floor for positive-semidefiniteness checks

_SQRT2 = np.sqrt(2.0)

#: The four Bell vectors in the computational basis |00>,|01>,|10>,|11>,
#: in the row order (Psi-, Psi+, Phi+, Phi-) of the Bell weights.
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

class _Matrix(NamedTuple):
    matrix: np.ndarray


class DensityMatrix(Checked, _Matrix):
    """Exact complex density matrix on one, two or four qubits.

    Used as the brute-force representation behind the oracle paths.  The
    matrix must be Hermitian, trace one and positive semidefinite within
    the module tolerances.
    """

    __slots__ = ()

    def __new__(cls, matrix):
        m = np.array(matrix, dtype=complex)  # a copy: the caller's array stays writable
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
        return super().__new__(cls, m)


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


I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2

#: pi/2 rotations about x, opposite senses for the two nodes of a pair.
ROT_PLUS = (I2 + 1j * PAULI_X) / _SQRT2
ROT_MINUS = (I2 - 1j * PAULI_X) / _SQRT2

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(ops: dict[int, np.ndarray], n_qubits: int) -> np.ndarray:
    """Single-qubit operators placed on the given qubits, identity elsewhere."""
    return kron_all(*(ops.get(q, I2) for q in range(n_qubits)))


def cnot(control: int, target: int, n_qubits: int) -> np.ndarray:
    return embed({control: _P0}, n_qubits) + embed(
        {control: _P1, target: PAULI_X}, n_qubits
    )


# The oracle's fixed four-qubit operators, built once.
_ROT4 = kron_all(ROT_MINUS, ROT_PLUS, ROT_MINUS, ROT_PLUS)
_CNOT_02, _CNOT_13, _CNOT_12 = cnot(0, 2, 4), cnot(1, 3, 4), cnot(1, 2, 4)
_HADAMARD_1 = embed({1: HADAMARD}, 4)
_OUTCOMES = tuple(itertools.product((0, 1), repeat=2))
#: Projectors onto each outcome pair of qubits (2, 3), and of qubits (1, 2).
_PROJ_23, _PROJ_12 = (
    {(ma, mb): embed({qa: (_P0, _P1)[ma], qb: (_P0, _P1)[mb]}, 4) for ma, mb in _OUTCOMES}
    for qa, qb in ((2, 3), (1, 2))
)
#: Frame correction returning the purified pair to Psi-.
_PURIFY_CORR = np.kron(I2, PAULI_Y)
#: Swap correction on the right qubit per reported (phase, amplitude)
#: bits: X unless the amplitude bit is set, Z unless the phase bit is.
_SWAP_CORR = {
    (z_rep, a_rep): np.kron(I2, (I2 if a_rep else PAULI_X) @ (I2 if z_rep else PAULI_Z))
    for z_rep, a_rep in _OUTCOMES
}


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (order preserved)."""
    letters = "abcdefghijklmnop"
    row = letters[:n_qubits]
    col = "".join(letters[n_qubits + q] if q in keep else row[q] for q in range(n_qubits))
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    r = rho.reshape([2] * (2 * n_qubits))
    reduced = np.einsum(row + col + "->" + out, r)
    k = len(keep)
    return reduced.reshape(2**k, 2**k)


def _reorder_qubits(rho: np.ndarray, order: list[int], n_qubits: int) -> np.ndarray:
    """``rho`` lives on qubits in the given order; return it on 0..n-1."""
    pos = [order.index(q) for q in range(n_qubits)]
    axes = pos + [n_qubits + i for i in pos]
    return rho.reshape([2] * (2 * n_qubits)).transpose(axes).reshape(rho.shape)


def noisy_gate(
    rho: np.ndarray, u: np.ndarray, node_qubits: tuple[int, int], p: float, n_qubits: int = 4
) -> np.ndarray:
    """Two-qubit gate at one node: with probability p the ideal unitary,
    otherwise the node's qubit pair is replaced by the maximally mixed
    two-qubit state (the rest of the register traced through unchanged)."""
    ideal = u @ rho @ u.conj().T
    if p == 1.0:
        return ideal
    others = tuple(q for q in range(n_qubits) if q not in node_qubits)
    rest = partial_trace(rho, others, n_qubits)
    mixed = np.kron(rest, np.eye(4, dtype=complex) / 4.0)
    mixed = _reorder_qubits(mixed, list(others) + list(node_qubits), n_qubits)
    return p * ideal + (1.0 - p) * mixed


def _pair_product(a: BellDiagonalState, b: BellDiagonalState) -> np.ndarray:
    return np.kron(to_density(a).matrix, to_density(b).matrix)


def _purify_kept(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> tuple[np.ndarray | None, float]:
    """Exact 16x16 evaluation of one purification round: the corrected
    4x4 matrix of the kept pair (None below ``MIN_SUCCESS_PROB``) and the
    acceptance probability.

    Qubit layout: (0, 1) hold the kept pair ``a`` at nodes A, B and
    (2, 3) the consumed pair ``b``; node A owns qubits (0, 2), node B
    owns (1, 3).
    """
    rho = _pair_product(a, b)
    rho = _ROT4 @ rho @ _ROT4.conj().T
    rho = noisy_gate(rho, _CNOT_02, (0, 2), noise.p)
    rho = noisy_gate(rho, _CNOT_13, (1, 3), noise.p)
    # Accept when the reported outcomes of qubits 2 and 3 coincide; sum the
    # true-projection branches with their report weights.
    eta = noise.eta
    accepted = np.zeros_like(rho)
    for (m2, m3), proj in _PROJ_23.items():
        weight = eta**2 + (1.0 - eta) ** 2 if m2 == m3 else 2.0 * eta * (1.0 - eta)
        accepted += weight * (proj @ rho @ proj)
    success = min(float(np.trace(accepted).real), 1.0)
    if success < MIN_SUCCESS_PROB:
        return None, success
    kept = partial_trace(accepted, (0, 1), 4) / success
    return _PURIFY_CORR @ kept @ _PURIFY_CORR.conj().T, success


def purify_oracle(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> PurifyOutcome:
    """Exact 16x16 evaluation of one purification round, projected onto
    the Bell basis."""
    kept, success = _purify_kept(a, b, noise)
    state = None if kept is None else bell_project(kept)
    return PurifyOutcome(state=state, success_prob=success)


def purify_oracle_matrix(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> tuple[DensityMatrix, float]:
    """Like :func:`purify_oracle` but returning the full corrected 4x4
    matrix of the kept pair, for Bell-diagonality checks."""
    kept, success = _purify_kept(a, b, noise)
    if kept is None:
        raise ValueError(f"purification never accepts (probability {success:.3e})")
    return DensityMatrix(kept), success


def swap_oracle_matrix(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> DensityMatrix:
    """Exact 16x16 evaluation of a deterministic entanglement swap,
    returning the full 4x4 matrix of the resulting outer pair.

    Qubit layout: (0, 1) hold pair ``a`` between the left and middle
    node, (2, 3) pair ``b`` between middle and right; the middle node
    owns qubits (1, 2).  Outcome bit of qubit 1 (after the Hadamard) is
    the phase bit, qubit 2 the amplitude bit; the reported pair selects
    the Pauli correction applied to the right qubit.
    """
    rho = _pair_product(a, b)
    rho = noisy_gate(rho, _CNOT_12, (1, 2), noise.p)
    rho = _HADAMARD_1 @ rho @ _HADAMARD_1.conj().T
    branches = {outcome: proj @ rho @ proj for outcome, proj in _PROJ_12.items()}
    report = (1.0 - noise.eta, noise.eta)  # probability of reporting a false / the true bit
    out = np.zeros((4, 4), dtype=complex)
    for (z_rep, a_rep), corr in _SWAP_CORR.items():
        cond = np.zeros_like(rho)
        for (z_true, a_true), branch in branches.items():
            cond += report[z_rep == z_true] * report[a_rep == a_true] * branch
        kept = partial_trace(cond, (0, 3), 4)
        out += corr @ kept @ corr.conj().T
    return DensityMatrix(out)


def swap_oracle(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> BellDiagonalState:
    return bell_project(swap_oracle_matrix(a, b, noise))
