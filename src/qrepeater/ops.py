"""Entanglement purification and swapping on Bell-diagonal states.

These are the fast closed-form recurrences for the two protocol
primitives under imperfect two-qubit gates (reliability p) and imperfect
measurements (reliability eta).  The matching brute-force density-matrix
path lives in :mod:`qrepeater.exact`; the test suite requires the two to
agree to 1e-12.

Index convention throughout: 0=Psi-, 1=Psi+, 2=Phi+, 3=Phi-.  Each Bell
state carries an (amplitude, phase) bit pair -- Psi-=(1,1), Psi+=(1,0),
Phi+=(0,0), Phi-=(0,1) -- and local Pauli errors act by XOR on these
bits, which is what :func:`_xor_convolve` and :func:`swap_weights` spell out.
The round kernels :func:`purify_weights` and :func:`swap_weights` take four
float weights, a state's or not; a state is built only for a returned pair.
Their per-noise constants are computed once per :class:`NoiseParams`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .bell import BellDiagonalState, Checked, normalise

#: Threshold below which a purification acceptance probability is treated
#: as zero and the outcome reported unpurifiable instead of renormalised.
MIN_SUCCESS_PROB = 1e-15

class _Noise(NamedTuple):
    p: float
    eta: float
    upsilon: float


class NoiseParams(Checked, _Noise):
    """Reliability of local two-qubit gates (p) and measurements (eta),
    plus the error-mixing fraction upsilon used when preparing initial
    states; its per-round constants are cached outside the tuple."""

    def __new__(cls, p=1.0, eta=1.0, upsilon=0.0):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {p!r}")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
        if not 0.0 <= upsilon <= 0.5:
            raise ValueError(f"upsilon must lie in [0, 0.5], got {upsilon!r}")
        return super().__new__(cls, p, eta, upsilon)

    @functools.cached_property
    def purify_coefficients(self) -> tuple[float, float, float, float]:
        """``p**2``, g_same and g_cross of :func:`purify_weights`, and its floor."""
        p2, eta = self.p**2, self.eta
        return p2, eta**2 + (1.0 - eta) ** 2, 2.0 * eta * (1.0 - eta), (1.0 - p2) / 8.0

    @functools.cached_property
    def swap_constants(self) -> tuple[tuple[float, float, float, float], float]:
        """One swap's measurement errors (both outcome bits flipped, the
        amplitude bit only, neither, the phase bit only) and its floor."""
        eta, flip = self.eta, 1.0 - self.eta
        return (flip * flip, flip * eta, eta * eta, eta * flip), (1.0 - self.p) / 4.0


class PurifyOutcome(NamedTuple):
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
    label(i) XOR label(j) = label(k), in i order from 0.0."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        0.0 + u0 * v2 + u1 * v3 + u2 * v0 + u3 * v1,
        0.0 + u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0,
        0.0 + u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3,
        0.0 + u0 * v1 + u1 * v0 + u2 * v3 + u3 * v2,
    )


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
    w, success = purify_weights(a, b, noise)
    return PurifyOutcome(None if w is None else BellDiagonalState.from_weights(w), success)


def purify_weights(a, b, noise: NoiseParams) -> tuple[list | None, float]:
    """:func:`purify` on four weights each: the kept pair's weights before
    renormalisation (None when unpurifiable) and the acceptance probability."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p2, g_same, g_cross, floor = noise.purify_coefficients
    # Components whose true measurement parities agree (g_same) / disagree
    # (g_cross) after the frame correction; classes {Psi-, Phi+}, {Psi+, Phi-}.
    u0 = p2 * (g_same * (a0 * b0 + a2 * b2) + g_cross * (a0 * b3 + a2 * b1)) + floor
    u1 = p2 * (g_same * (a0 * b2 + a2 * b0) + g_cross * (a0 * b1 + a2 * b3)) + floor
    u2 = p2 * (g_same * (a1 * b3 + a3 * b1) + g_cross * (a1 * b0 + a3 * b2)) + floor
    u3 = p2 * (g_same * (a1 * b1 + a3 * b3) + g_cross * (a1 * b2 + a3 * b0)) + floor
    success = 0.0 + u0 + u1 + u2 + u3
    success = 1.0 if 1.0 < success else success  # clamp float round-off; min(success, 1.0)
    if success < MIN_SUCCESS_PROB:
        return None, success
    return [u0 / success, u1 / success, u2 / success, u3 / success], success


def swap(a: BellDiagonalState, b: BellDiagonalState, noise: NoiseParams) -> BellDiagonalState:
    """Entanglement swap at the node the two pairs share.

    The Bell measurement is a noisy CNOT, a Hadamard, and two
    measurements of reliability eta; all four outcomes are kept and the
    matching Pauli correction is applied, so the protocol is
    deterministic.  Independent flips of the two outcome bits appear as
    an extra X / Z error convolved onto the result.
    """
    return BellDiagonalState.from_weights(swap_weights(a, b, noise))


def swap_weights(a, b, noise: NoiseParams) -> list:
    """:func:`swap` on four weights each: the weights before renormalisation."""
    measure, floor = noise.swap_constants
    p = noise.p
    i0, i1, i2, i3 = _xor_convolve(_xor_convolve(a, b), measure)
    # The outcome-bit frame leaves two perfect singlets on Phi+; the fixed
    # correction includes a Y (Psi- <-> Phi+, Psi+ <-> Phi-) that moves the
    # target back to Psi-.
    return [p * i2 + floor, p * i3 + floor, p * i0 + floor, p * i1 + floor]


def connect_chain(pairs, noise: NoiseParams) -> BellDiagonalState:
    """Left fold of :func:`swap` over an ordered list of pairs, producing
    one pair spanning the whole chain; a single pair is returned as is."""
    pairs = list(pairs)
    if len(pairs) < 2:
        if not pairs:
            raise ValueError("connect_chain requires at least one pair")
        return pairs[0]
    w = pairs[0]
    for pair in pairs[1:-1]:
        w = normalise(swap_weights(w, pair, noise))
    return BellDiagonalState.from_weights(swap_weights(w, pairs[-1], noise))
