"""Entanglement purification and swapping on Bell-diagonal states.

These are the fast closed-form recurrences for the two protocol
primitives under imperfect two-qubit gates (reliability p) and imperfect
measurements (reliability eta).  The matching brute-force density-matrix
path lives in :mod:`qrepeater.exact`; the test suite requires the two to
agree to 1e-12.

Index convention throughout: 0=Psi-, 1=Psi+, 2=Phi+, 3=Phi-.  Each Bell
state carries an (amplitude, phase) bit pair -- Psi-=(1,1), Psi+=(1,0),
Phi+=(0,0), Phi-=(0,1) -- and local Pauli errors act by XOR on these
bits, which is what the tables below encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .bell import BellDiagonalState, _sum4

#: Threshold below which a purification acceptance probability is treated
#: as zero and the outcome reported unpurifiable instead of renormalised.
MIN_SUCCESS_PROB = 1e-15

# (amplitude, phase) bit pair per Bell index.
_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))
_BIT_INDEX = {bits: k for k, bits in enumerate(_BITS)}

#: XOR-composition table: _XOR[i][j] = index of the Bell label whose bits
#: are the bitwise XOR of labels i and j.
_XOR = tuple(
    tuple(_BIT_INDEX[(a1 ^ a2, z1 ^ z2)] for (a2, z2) in _BITS) for (a1, z1) in _BITS
)

_Y_INDEX = _BIT_INDEX[(1, 1)]  # a Y error flips both bits


@dataclass(frozen=True)
class NoiseParams:
    """Reliability of local two-qubit gates (p) and measurements (eta),
    plus the error-mixing fraction upsilon used when preparing initial
    states."""

    p: float = 1.0
    eta: float = 1.0
    upsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        if not 0.0 <= self.upsilon <= 0.5:
            raise ValueError(f"upsilon must lie in [0, 0.5], got {self.upsilon!r}")


@dataclass(frozen=True)
class PurifyOutcome:
    """Surviving pair of a purification round, conditioned on acceptance.

    ``state`` is None when the acceptance probability is below
    ``MIN_SUCCESS_PROB`` (unpurifiable input).
    """

    state: BellDiagonalState | None
    success_prob: float

    @property
    def purifiable(self) -> bool:
        return self.state is not None


def _xor_convolve(u, v) -> tuple:
    """Convolution of two Bell-weight vectors under bitwise-XOR label
    composition: the output distribution of stacking two independent
    Pauli-frame errors.  Output k adds u[i] * v[j] over the i with
    _XOR[i][j] = k, in i order from 0.0."""
    return tuple(
        0.0 + u[0] * v[_XOR[0][k]] + u[1] * v[_XOR[1][k]] + u[2] * v[_XOR[2][k]]
        + u[3] * v[_XOR[3][k]]
        for k in range(4)
    )


def _fields(state: BellDiagonalState) -> tuple:
    return state.w_psi_minus, state.w_psi_plus, state.w_phi_plus, state.w_phi_minus


def purify(a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams) -> PurifyOutcome:
    """One round of two-to-one purification; ``a`` is the kept pair.

    Both pairs are rotated by pi/2 about x (opposite senses at the two
    nodes), a CNOT from the kept onto the consumed pair is applied at
    each node through the noisy-gate channel, one qubit per node is
    measured with reliability eta, and the pair survives when the
    reported outcomes coincide.  A fixed local frame correction returns
    the target to the singlet.

    Returns the conditioned surviving state and the total acceptance
    probability over both accepting outcome patterns.
    """
    a0, a1, a2, a3 = _fields(a)
    b0, b1, b2, b3 = _fields(b)
    # Components whose true measurement parities agree / disagree, after
    # the frame correction.  Parity classes are {Psi-, Phi+} and {Psi+, Phi-}.
    same = (a0 * b0 + a2 * b2, a0 * b2 + a2 * b0, a1 * b3 + a3 * b1, a1 * b1 + a3 * b3)
    cross = (a0 * b3 + a2 * b1, a0 * b1 + a2 * b3, a1 * b0 + a3 * b2, a1 * b2 + a3 * b0)
    p2 = noise.p**2
    eta = noise.eta
    g_same = eta**2 + (1.0 - eta) ** 2  # reported-equal given true-equal
    g_cross = 2.0 * eta * (1.0 - eta)   # reported-equal given true-unequal
    floor = (1.0 - p2) / 8.0
    unnorm = [p2 * (g_same * s + g_cross * c) + floor for s, c in zip(same, cross)]
    success = min(_sum4(unnorm), 1.0)  # clamp float round-off
    if success < MIN_SUCCESS_PROB:
        return PurifyOutcome(state=None, success_prob=success)
    return PurifyOutcome(
        state=BellDiagonalState.from_weights([u / success for u in unnorm]),
        success_prob=success,
    )


def swap(a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams) -> BellDiagonalState:
    """Entanglement swap at the node the two pairs share.

    The Bell measurement is a noisy CNOT, a Hadamard, and two
    measurements of reliability eta; all four outcomes are kept and the
    matching Pauli correction is applied, so the protocol is
    deterministic.  Independent flips of the two outcome bits appear as
    an extra X / Z error convolved onto the result.
    """
    eta, p = noise.eta, noise.p
    meas_err = [
        (1.0 - eta if ea else eta) * (1.0 - eta if ez else eta) for ea, ez in _BITS
    ]
    ideal = _xor_convolve(_xor_convolve(_fields(a), _fields(b)), meas_err)
    # The outcome-bit frame leaves two perfect singlets on Phi+; the fixed
    # correction includes a Y that moves the target back to Psi-.
    floor = (1.0 - p) / 4.0
    return BellDiagonalState.from_weights([p * ideal[k] + floor for k in _XOR[_Y_INDEX]])


def connect_chain(pairs, noise: NoiseParams) -> BellDiagonalState:
    """Left fold of :func:`swap` over an ordered list of pairs, producing
    one pair spanning the whole chain."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("connect_chain requires at least one pair")
    return reduce(lambda acc, nxt: swap(acc, nxt, noise), pairs)
