"""Mean/variance algebra for protocol completion times.

Build durations are combined three ways: sequential stages add, stages
on disjoint hardware run concurrently (max), and rejected purification
rounds restart the whole construction.  Waiting times for heralded links
are geometric; groups of identical links racing in parallel have exact
closed-form max moments, while maxima over composite stages use Clark's
Gaussian moment-matching approximation.  These are one algebra of the
process that :meth:`qrepeater.protocol.Ladder.fold` writes once; the
Monte Carlo sampler is the other, and the check on these approximations.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .bell import Checked


class _Moments(NamedTuple):
    mean: float
    var: float


class Duration(Checked, _Moments):
    """First two moments of a nonnegative completion time."""

    __slots__ = ()

    def __new__(cls, mean, var=0.0):
        if mean < 0 or var < 0:
            raise ValueError(f"invalid duration moments ({mean}, {var})")
        return super().__new__(cls, mean, var)

    def shifted(self, offset: float) -> "Duration":
        return Duration(self.mean + offset, self.var)


def max_of_geometric(count: int, p: float, unit: float) -> Duration:
    """Exact moments of the maximum of ``count`` independent geometric
    attempt counts, scaled by the attempt duration ``unit``.

    Inclusion-exclusion over subsets of the racers:
    E[max]  = sum_s (-1)^(s+1) C(n,s) / (1 - q^s)
    E[max^2] = sum_s (-1)^(s+1) C(n,s) (2 q^s / (1-q^s)^2 + 1 / (1-q^s))
    with q = 1 - p.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    q = 1.0 - p
    first = 0.0
    second = 0.0
    for s in range(1, count + 1):
        sign = 1.0 if s % 2 == 1 else -1.0
        c = math.comb(count, s)
        qs = q**s
        first += sign * c / (1.0 - qs)
        second += sign * c * (2.0 * qs / (1.0 - qs) ** 2 + 1.0 / (1.0 - qs))
    var = second - first**2
    return Duration(first * unit, max(var, 0.0) * unit**2)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def max_pair(a: Duration, b: Duration) -> Duration:
    """Clark's moment-matching approximation for the maximum of two
    independent stage durations."""
    nu2 = a.var + b.var
    if nu2 <= 0.0:
        return Duration(max(a.mean, b.mean), 0.0)
    nu = math.sqrt(nu2)
    delta = (a.mean - b.mean) / nu
    cdf, pdf = _norm_cdf(delta), _norm_pdf(delta)
    first = a.mean * cdf + b.mean * (1.0 - cdf) + nu * pdf
    second = (
        (a.mean**2 + a.var) * cdf
        + (b.mean**2 + b.var) * (1.0 - cdf)
        + (a.mean + b.mean) * nu * pdf
    )
    return Duration(first, max(second - first**2, 0.0))


def max_all(durations: list[Duration]) -> Duration:
    """Fold :func:`max_pair` over concurrent stages."""
    if not durations:
        raise ValueError("max_all requires at least one duration")
    return functools.reduce(max_pair, durations)


def restarting_rounds(
    base: Duration, round_cost: Duration, round_overhead: float, probs: list[float]
) -> Duration:
    """Completion time of a build that pays ``base``, then runs one round
    of ``round_cost`` plus ``round_overhead`` per entry of ``probs``, each
    accepted with the given probability; any rejection restarts the whole
    build from scratch.

    Exact for independent redraws of every stage: the process is a
    geometric number of failed cycles (cost truncated at the failing
    round) followed by one full successful cycle.
    """
    if not probs:
        return base
    if any(not 0.0 < q <= 1.0 for q in probs):
        raise ValueError(f"round acceptance probabilities must lie in (0, 1]: {probs}")
    m = len(probs)
    p_full = math.prod(probs)
    round_mean = round_cost.mean + round_overhead
    success = Duration(base.mean + m * round_mean, base.var + m * round_cost.var)
    if p_full == 1.0:
        return success
    # Failure-position mixture: reach round i with prob prod(q_j, j<i),
    # fail there with prob (1 - q_i).
    weights, means, variances = [], [], []
    reach = 1.0
    for i, q in enumerate(probs, start=1):
        weights.append(reach * (1.0 - q))
        means.append(base.mean + i * round_mean)
        variances.append(base.var + i * round_cost.var)
        reach *= q
    total_w = sum(weights)
    mean_fail = sum(w * mu for w, mu in zip(weights, means)) / total_w
    second_fail = sum(w * (v + mu**2) for w, mu, v in zip(weights, means, variances))
    var_fail = second_fail / total_w - mean_fail**2
    n_fail_mean = (1.0 - p_full) / p_full
    n_fail_var = (1.0 - p_full) / p_full**2
    mean = n_fail_mean * mean_fail + success.mean
    var = n_fail_mean * var_fail + n_fail_var * mean_fail**2 + success.var
    return Duration(mean, var)
