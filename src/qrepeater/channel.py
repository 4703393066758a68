"""Elementary-link model: success probability, initial fidelity and time
per entanglement-generation attempt over a lossy fiber segment.

The closed forms describe the interference scheme in which two nodes
scatter weak coherent light toward a midpoint beamsplitter and a click
in the dark port heralds a singlet.  A photon-mode Monte Carlo that
tracks coherent amplitudes into detected and lost modes provides an
independent check of the closed forms.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .bell import BellDiagonalState, Checked, from_fidelity

#: Signal velocity in fiber used for the default classical-heralding time.
FIBER_SIGNAL_SPEED_M_PER_S = 2.0e8

#: What every command says of a link whose success probability is zero.
NEVER_SUCCEEDS = "elementary link never succeeds (P = 0)"


class _Link(NamedTuple):
    l0_km: float
    attenuation_db_per_km: float
    p_em: float
    eps_local: float
    t0_s: float
    tc_s: float | None


class LinkParams(Checked, _Link):
    """Physical description of one fiber segment between adjacent nodes.

    ``tc_s`` is the classical heralding time per attempt, as given; None
    (the default) derives it on every read of :attr:`classical_time_s`
    as the one-way signalling time over half the segment and back,
    l0_km / (2e8 m/s), so a copy with another ``l0_km`` derives its own.
    """

    __slots__ = ()

    def __new__(cls, l0_km=20.0, attenuation_db_per_km=0.2, p_em=0.05, eps_local=1.0,
                t0_s=1e-6, tc_s=None):
        self = super().__new__(cls, l0_km, attenuation_db_per_km, p_em, eps_local, t0_s, tc_s)
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.l0_km > 0:
            raise ValueError(f"l0_km must be > 0, got {self.l0_km!r}")
        if self.attenuation_db_per_km < 0:
            raise ValueError(
                f"attenuation_db_per_km must be >= 0, got {self.attenuation_db_per_km!r}"
            )
        if not 0.0 < self.p_em <= 1.0:
            raise ValueError(f"p_em must lie in (0, 1], got {self.p_em!r}")
        if not 0.0 < self.eps_local <= 1.0:
            raise ValueError(f"eps_local must lie in (0, 1], got {self.eps_local!r}")
        if self.t0_s < 0:
            raise ValueError(f"t0_s must be >= 0, got {self.t0_s!r}")
        if self.tc_s is not None and self.tc_s < 0:
            raise ValueError(f"tc_s must be >= 0, got {self.tc_s!r}")
        return self

    @property
    def classical_time_s(self) -> float:
        if self.tc_s is None:
            return self.l0_km * 1000.0 / FIBER_SIGNAL_SPEED_M_PER_S
        return self.tc_s

    @property
    def attempt_duration_s(self) -> float:
        return self.t0_s + self.classical_time_s


def channel_efficiency(link: LinkParams) -> float:
    """Total collection, propagation and detection efficiency of one
    photon travelling from a node to the midpoint detectors."""
    loss_db = link.attenuation_db_per_km * link.l0_km / 2.0
    return link.eps_local * 10.0 ** (-loss_db / 10.0)


def entangle_success_prob(p_em: float, eps: float) -> float:
    """Probability that one attempt heralds a pair: (1/2)(1 - exp(-p_em*eps/2)),
    about eps*p_em/4 for small arguments."""
    _check_unit("p_em", p_em)
    _check_unit("eps", eps)
    return 0.5 * (1.0 - math.exp(-p_em * eps / 2.0))


def initial_fidelity(p_em: float, eps: float) -> float:
    """Singlet fidelity of a heralded pair: (1/2)(1 + exp(-p_em*(1-eps))).

    Unaccounted emission (the fraction 1-eps that is never detected)
    leaves which-path information in the environment and appears as a
    phase-error admixture.
    """
    _check_unit("p_em", p_em)
    _check_unit("eps", eps)
    return 0.5 * (1.0 + math.exp(-p_em * (1.0 - eps)))


def p_em_for_fidelity(f0: float, eps: float) -> float:
    """Emission probability that yields initial fidelity ``f0`` at
    efficiency ``eps`` (inverse of :func:`initial_fidelity`)."""
    if not 0.5 < f0 <= 1.0:
        raise ValueError(f"f0 must lie in (0.5, 1], got {f0!r}")
    if eps >= 1.0:
        raise ValueError("every f0 is 1 at eps = 1; p_em is unconstrained")
    return -math.log(2.0 * f0 - 1.0) / (1.0 - eps)


def expected_link_time(link: LinkParams) -> float:
    """Expected wall-clock time to herald one elementary pair,
    (t0 + tc) / P."""
    prob = entangle_success_prob(link.p_em, channel_efficiency(link))
    if prob <= 0.0:
        raise ValueError(NEVER_SUCCEEDS)
    return link.attempt_duration_s / prob


def link_state(p_em: float, eps: float, upsilon: float) -> BellDiagonalState:
    """Bell-diagonal state of a freshly heralded elementary pair."""
    return from_fidelity(initial_fidelity(p_em, eps), upsilon)


class PhotonOracleResult(NamedTuple):
    """Monte Carlo estimates of the link closed forms."""

    p_hat: float
    f0_hat: float
    p_se: float
    f0_se: float


def photon_mode_oracle(
    p_em: float, eps: float, trials: int, seed: int
) -> PhotonOracleResult:
    """Sample the entanglement-generation attempt at the photon level.

    Each trial draws the two spin branches uniformly, then Poisson photon
    counts for the dark-port mode (mean eps*p_em/2 when exactly one node
    scatters; the balanced branches send nothing there) and for the lost
    modes (mean p_em*(1-eps)).  A trial succeeds when at least one
    dark-port photon arrives.  Conditioned on success, the pair is the
    pure singlet when no photon escaped into the lost modes and an even
    phase mixture otherwise, so the fidelity estimator is the mean of
    1 / 0.5 indicators.  The detected arms carry no which-path
    information in this model.

    Deterministic for a fixed seed (PCG64 generator).
    """
    _check_unit("p_em", p_em)
    _check_unit("eps", eps)
    seed, trials = check_sampler_args(seed, trials)
    import numpy as np

    rng = np.random.default_rng(seed)
    spin_a = rng.integers(0, 2, size=trials)
    spin_b = rng.integers(0, 2, size=trials)
    one_scatterer = spin_a != spin_b
    dark_counts = np.zeros(trials, dtype=np.int64)
    n_single = int(one_scatterer.sum())
    dark_counts[one_scatterer] = rng.poisson(eps * p_em / 2.0, size=n_single)
    success = dark_counts >= 1
    successes = int(success.sum())
    p_hat = successes / trials
    p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    if successes == 0:
        return PhotonOracleResult(p_hat, math.nan, p_se, math.nan)
    lost_counts = rng.poisson(p_em * (1.0 - eps), size=successes)
    contrib = np.where(lost_counts == 0, 1.0, 0.5)
    f0_hat = float(contrib.mean())
    f0_se = float(contrib.std(ddof=1) / math.sqrt(successes)) if successes > 1 else math.nan
    return PhotonOracleResult(p_hat, f0_hat, p_se, f0_se)


def as_index(value, low: int) -> int | None:
    """``value`` as an int if it is an integer >= ``low`` and no bool, else None:
    operator.index takes numpy integers and refuses floats, strings and numpy bools."""
    try:
        if not isinstance(value, bool) and (out := operator.index(value)) >= low:
            return out
    except TypeError:
        pass
    return None


def check_sampler_args(seed: int, trials: int) -> tuple[int, int]:
    """Both samplers' check, run before numpy loads: non-bool integral seed >= 0, trials >= 1."""
    for name, value, low in (("seed", seed, 0), ("trials", trials, 1)):
        if as_index(value, low) is None:
            raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return int(seed), int(trials)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
