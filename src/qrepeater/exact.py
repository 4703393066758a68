"""Brute-force density-matrix path for the noisy protocol primitives.

Everything here works on exact 16x16 (four-qubit) matrices and exists to
check the fast Bell-weight recurrences in :mod:`qrepeater.ops`; nothing
in the protocol layer calls it.  Qubit 0 is the leftmost tensor factor.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bell import BellDiagonalState, DensityMatrix, bell_project, to_density
from .ops import MIN_SUCCESS_PROB, NoiseParams, PurifyOutcome

_SQRT2 = np.sqrt(2.0)

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


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (order preserved)."""
    letters = "abcdefghijklmnop"
    row = list(letters[:n_qubits])
    col = list(letters[n_qubits : 2 * n_qubits])
    for q in range(n_qubits):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(
        letters[n_qubits + q] for q in keep
    )
    r = rho.reshape([2] * (2 * n_qubits))
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, r)
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


def noisy_measure(rho: np.ndarray, qubit: int, eta: float):
    """Computational-basis measurement whose classical outcome flips with
    probability 1-eta.

    Returns ``(probs, post_states)``: the probability of reporting 0 / 1
    and the corresponding renormalised post-measurement states (None for
    a zero-probability branch).
    """
    n_qubits = int(np.log2(rho.shape[0]))
    proj = [embed({qubit: _P0}, n_qubits), embed({qubit: _P1}, n_qubits)]
    branches = [proj[m] @ rho @ proj[m] for m in (0, 1)]
    probs, posts = [], []
    for reported in (0, 1):
        unnorm = eta * branches[reported] + (1.0 - eta) * branches[1 - reported]
        prob = float(np.trace(unnorm).real)
        probs.append(prob)
        posts.append(unnorm / prob if prob > 0.0 else None)
    return tuple(probs), tuple(posts)


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
    n = 4
    rho = _pair_product(a, b)
    rot = kron_all(ROT_MINUS, ROT_PLUS, ROT_MINUS, ROT_PLUS)
    rho = rot @ rho @ rot.conj().T
    rho = noisy_gate(rho, cnot(0, 2, n), (0, 2), noise.p, n)
    rho = noisy_gate(rho, cnot(1, 3, n), (1, 3), noise.p, n)
    # Accept when the reported outcomes of qubits 2 and 3 coincide; sum the
    # true-projection branches with their report weights.
    eta = noise.eta
    accepted = np.zeros_like(rho)
    for m2, m3 in itertools.product((0, 1), repeat=2):
        weight = eta**2 + (1.0 - eta) ** 2 if m2 == m3 else 2.0 * eta * (1.0 - eta)
        proj = embed({2: _P0 if m2 == 0 else _P1, 3: _P0 if m3 == 0 else _P1}, n)
        accepted += weight * (proj @ rho @ proj)
    success = min(float(np.trace(accepted).real), 1.0)
    if success < MIN_SUCCESS_PROB:
        return None, success
    kept = partial_trace(accepted, (0, 1), n) / success
    corr = np.kron(I2, PAULI_Y)  # frame correction returning the target to Psi-
    return corr @ kept @ corr.conj().T, success


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
    n = 4
    rho = _pair_product(a, b)
    rho = noisy_gate(rho, cnot(1, 2, n), (1, 2), noise.p, n)
    had = embed({1: HADAMARD}, n)
    rho = had @ rho @ had.conj().T
    eta = noise.eta
    pauli = {
        (0, 0): I2,
        (1, 0): PAULI_X,
        (0, 1): PAULI_Z,
        (1, 1): PAULI_X @ PAULI_Z,
    }
    out = np.zeros((4, 4), dtype=complex)
    for z_rep, a_rep in itertools.product((0, 1), repeat=2):
        cond = np.zeros_like(rho)
        for z_true, a_true in itertools.product((0, 1), repeat=2):
            weight = (eta if z_rep == z_true else 1.0 - eta) * (
                eta if a_rep == a_true else 1.0 - eta
            )
            proj = embed(
                {1: _P0 if z_true == 0 else _P1, 2: _P0 if a_true == 0 else _P1}, n
            )
            cond += weight * (proj @ rho @ proj)
        kept = partial_trace(cond, (0, 3), n)
        corr = np.kron(I2, pauli[(a_rep ^ 1, z_rep ^ 1)])
        out += corr @ kept @ corr.conj().T
    return DensityMatrix(out)


def swap_oracle(
    a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams
) -> BellDiagonalState:
    return bell_project(swap_oracle_matrix(a, b, noise))
