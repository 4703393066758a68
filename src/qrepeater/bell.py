"""Bell-diagonal representation of two-qubit entangled states.

The Bell basis is ordered (Psi-, Psi+, Phi+, Phi-) with
Psi+- = (|01> +- |10>)/sqrt(2) and Phi+- = (|00> +- |11>)/sqrt(2).
The target state of every protocol in this package is the singlet Psi-,
so "fidelity" always means the first Bell weight.  Their exact density
matrices live in :mod:`qrepeater.exact`; this module imports numpy only
to build an array.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

ATOL = 1e-12          # tolerance for algebraic identities (normalisation, hermiticity)
_INF = math.inf


class Checked:
    """First base of a NamedTuple's subclass whose ``__new__`` checks the
    fields, so that ``_replace`` (as pickle and copy do) builds through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


class _BellWeights(NamedTuple):
    w_psi_minus: float
    w_psi_plus: float
    w_phi_plus: float
    w_phi_minus: float


class BellDiagonalState(Checked, _BellWeights):
    """Probability weights of a two-qubit state over the four Bell states,
    as an immutable tuple in basis order: a state is its weights.

    Weights must be finite, in [0, 1] and sum to 1 within ``ATOL``.  The first
    weight is the singlet fidelity.
    """

    __slots__ = ()

    def __new__(cls, w_psi_minus, w_psi_plus, w_phi_plus, w_phi_minus):
        self = super().__new__(cls, w_psi_minus, w_psi_plus, w_phi_plus, w_phi_minus)
        if min(self) < -ATOL or max(self) > 1.0 + ATOL:
            raise ValueError(f"Bell weights must lie in [0, 1], got {self.weights.tolist()}")
        total = 0.0 + self[0] + self[1] + self[2] + self[3]  # numpy's order
        if not math.isfinite(total):  # a NaN weight passes the range check
            raise ValueError(f"Bell weights must be finite, got {self.weights.tolist()}")
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"Bell weights must sum to 1 within {ATOL}, got {float(total)!r}")
        return self

    @property
    def weights(self) -> np.ndarray:
        import numpy as np

        return np.array(self)

    @classmethod
    def from_weights(cls, w) -> "BellDiagonalState":
        """Build a state from a length-4 weight vector by :func:`normalise`;
        a list of four floats, as the kernels pass, skips ``np.asarray``."""
        if type(w) is not list or len(w) != 4 or not (
            type(w[0]) is type(w[1]) is type(w[2]) is type(w[3]) is float
        ):
            import numpy as np

            w = np.asarray(w, dtype=float)
            if w.shape != (4,):
                raise ValueError(f"expected 4 Bell weights, got shape {w.shape}")
            w = w.tolist()
        return cls(*normalise(w))


def normalise(w) -> tuple[float, float, float, float]:
    """Four weights with float round-off removed, as for a new state: clipped
    to [0, 1], sum rescaled to 1.  Loops keep a pair as these floats between
    rounds.  Nonnegative weights with a positive finite sum take a straight
    line with no check or clip (a sum of nonnegative floats never rounds below
    a term, so each ``x / total`` lies in [0, 1]); other input runs the checks."""
    w0, w1, w2, w3 = w
    total = 0.0 + w0 + w1 + w2 + w3
    if 0.0 <= w0 and 0.0 <= w1 and 0.0 <= w2 and 0.0 <= w3 and 0.0 < total < _INF:
        w0, w1, w2, w3 = w0 / total, w1 / total, w2 / total, w3 / total
        total = 0.0 + w0 + w1 + w2 + w3
        return w0 / total, w1 / total, w2 / total, w3 / total
    lo = min(w0, w1, w2, w3)
    if lo < -ATOL:
        raise ValueError(f"Bell weights must be nonnegative, got {[w0, w1, w2, w3]}")
    if not math.isfinite(total):
        raise ValueError(f"Bell weights and their sum must be finite, got {[w0, w1, w2, w3]}")
    if total <= 0.0:
        raise ValueError("Bell weights sum to zero; state undefined")
    w0, w1, w2, w3 = w0 / total, w1 / total, w2 / total, w3 / total
    if lo < 0.0:
        w0, w1, w2, w3 = (min(max(x, 0.0), 1.0) for x in (w0, w1, w2, w3))
    total = 0.0 + w0 + w1 + w2 + w3
    return w0 / total, w1 / total, w2 / total, w3 / total


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
