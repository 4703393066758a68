"""The nested two-qubit-per-node repeater protocol.

Each nesting level turns purified pairs spanning n segments into pairs
spanning 2n+1: two flanking pairs and a central elementary link are
swapped into a stored B pair, which is then pumped m times with freshly
built same-span C pairs; the survivor is the level's purified A pair.
C pairs bridge 2n+1 segments with three elementary links and two pairs
of span n-1, each swapped together from pairs one level further down and
tightened by a single purification round; no node ever needs more than
two qubits.  One :class:`Ladder` per config builds the levels, each once
and only when read; :func:`run_protocol`, the sampler and the
fixed-point analysis all read it.

Fidelity bookkeeping is deterministic (conditioned on every purification
accepting); the builders compute states and acceptance probabilities only.
:meth:`Ladder.time` computes a depth's time on first read, as one
:class:`~qrepeater.timing.Duration` (the first two moments of the random
completion time), cross-checked by a discrete-event Monte Carlo sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .bell import BellDiagonalState, from_fidelity, normalise, weights_of
from .channel import (
    LinkParams,
    channel_efficiency,
    check_sampler_args,
    entangle_success_prob,
    link_state,
)
from .ops import NoiseParams, connect_chain, purify, purify_weights, swap
from .timing import Duration, max_all, max_of_geometric, restarting_rounds

#: numpy, imported on the first monte_carlo_time call so the analytic path
#: never loads it; looked up at each call, so a replacement here takes effect.
np = None


class ProtocolError(ValueError):
    """A protocol construction failed (for example an unpurifiable pump
    step); the message carries the nesting-level context.  A ValueError,
    so one ``except ValueError`` catches every bad-input failure."""


def round_span_up(span: int) -> int:
    """Smallest schedulable span (2^k - 1) that is >= ``span``."""
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span!r}")
    return (1 << math.ceil(span).bit_length()) - 1


def nesting_depth(target_span: int) -> int:
    """The number k of nesting levels that build a target span 2^(k+1) - 1
    from single segments; span 1 needs none."""
    if target_span < 1:
        raise ValueError(f"target_span must be >= 1, got {target_span!r}")
    if (span := round_span_up(target_span)) != target_span:
        raise ValueError(
            f"target_span must be of the form 2^k - 1 (1, 3, 7, 15, ...), got {target_span!r}"
        )
    return span.bit_length() - 1


def pumping_depth(m: int | tuple[int, ...], level: int) -> int:
    """Pumping depth at a nesting level for one m or a per-level tuple, whose
    last entry serves every level beyond it; an empty tuple has none."""
    if isinstance(m, int):
        return m
    if not m:
        raise ValueError(f"per-level m is empty, so level {level} has no pumping depth")
    return m[min(level, len(m) - 1)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a protocol run needs: the physical link, the local
    noise, the pumping depth m (one int, or one per nesting level) and
    the target span.  The nesting depth k (target span 2^k - 1) is
    derived from ``target_span`` and cannot be passed.

    ``f0`` optionally pins the elementary-pair fidelity directly instead
    of deriving it from the link parameters; the time model always uses
    the link parameters.
    """

    link: LinkParams
    noise: NoiseParams
    m: int | tuple[int, ...] = 3
    target_span: int = 15
    depth: int = field(init=False)
    f0: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "depth", nesting_depth(self.target_span))
        if isinstance(self.m, int):
            if self.m < 0:
                raise ValueError(f"m must be >= 0, got {self.m!r}")
        else:
            ms = tuple(self.m)
            object.__setattr__(self, "m", ms)
            if len(ms) != self.depth:
                raise ValueError(f"per-level m needs {self.depth} entries, got {len(ms)}")
            if any(mi < 0 for mi in ms):
                raise ValueError(f"per-level m entries must be >= 0, got {ms!r}")
        if self.f0 is not None and not 0.0 <= self.f0 <= 1.0:
            raise ValueError(f"f0 must lie in [0, 1], got {self.f0!r}")

    @functools.cached_property
    def elementary_state(self) -> BellDiagonalState:
        """A fresh one-segment pair's state (``f0`` if pinned), kept once read."""
        if self.f0 is not None:
            return from_fidelity(self.f0, self.noise.upsilon)
        return link_state(self.link.p_em, channel_efficiency(self.link), self.noise.upsilon)


@dataclass(frozen=True)
class ProtocolResult:
    """Final pair and the total expected time."""

    final: BellDiagonalState
    total_expected_time: float


def _link_prob_and_unit(config: ProtocolConfig) -> tuple[float, float]:
    prob = entangle_success_prob(config.link.p_em, channel_efficiency(config.link))
    if prob <= 0.0:
        raise ProtocolError("elementary link never succeeds (P = 0)")
    if 1.0 - prob == 1.0:
        raise ProtocolError(
            f"elementary link success probability P = {prob:.3e} is below float"
            " resolution (1 - P rounds to 1)"
        )
    return prob, config.link.attempt_duration_s


def build_b_pair(
    a_left: BellDiagonalState, a_right: BellDiagonalState, config: ProtocolConfig
) -> BellDiagonalState:
    """Connect two span-n A pairs through a central elementary link into
    a span 2n+1 B pair.  The three constituents occupy disjoint qubits
    and are generated concurrently; one heralded swap round follows."""
    return connect_chain([a_left, config.elementary_state, a_right], config.noise)


def _helper_pair(
    half: BellDiagonalState, config: ProtocolConfig
) -> tuple[BellDiagonalState, float]:
    """Purified pair over the even helper span 2h used inside C pairs,
    from the span-h A pair ``half``.

    Two copies of ``half`` are swapped together, then the result is
    refined by a single purification round whose fodder is one more copy
    of the same swap (built on the communication qubits after the stored
    swap frees the interior).  One round suffices because the halves are
    already purified; quality then tracks the level below instead of
    compounding swap losses.  The round always accepts with probability
    at least 1/2: for two copies of one Bell-diagonal state the weight on
    agreeing parities is (w0+w2)^2 + (w1+w3)^2 >= 1/2, and a faithful
    report is at least as likely as a false one.

    Returns the helper pair and its refining round's acceptance probability.
    """
    state = swap(half, half, config.noise)
    outcome = purify(state, state, config.noise)
    return outcome.state, outcome.success_prob


def build_c_pair(inner: BellDiagonalState | None, config: ProtocolConfig) -> BellDiagonalState:
    """Fresh pair for one pumping round: three elementary links
    bracketing two copies of the purified span-h ``inner`` pair, all
    swapped together into a span 2h + 3 pair.  ``inner`` None is the
    lowest level, where the chain is three elementary links (span 3).

    ``inner`` is the refined helper pair of :func:`_helper_pair`; its two
    copies occupy disjoint segments and race concurrently with the three
    links.
    """
    elem = config.elementary_state
    if inner is None:
        return connect_chain([elem, elem, elem], config.noise)
    return connect_chain([elem, inner, elem, inner, elem], config.noise)


def pump(
    b: BellDiagonalState, c: BellDiagonalState, m: int, config: ProtocolConfig,
    level: int | None = None,
) -> tuple[BellDiagonalState, tuple[float, ...]]:
    """Purify the stored B pair m consecutive times, each round with a
    fresh copy of the same-span fodder pair ``c``; all rounds must
    accept, and any rejection restarts the level from scratch (that
    enters :meth:`Ladder.time`, not the conditioned state).  m = 0 keeps
    the B pair as the A pair.

    Returns the A pair and the acceptance probability of each step."""
    if m == 0:
        return b, ()
    weights, fodder = weights_of(b), weights_of(c)
    probs: list[float] = []
    for step in range(m):
        raw, success = purify_weights(weights, fodder, config.noise)
        if raw is None:
            where = f" at level {level}" if level is not None else ""
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{where}: acceptance"
                f" probability {success:.3e}"
            )
        weights = normalise(raw)
        probs.append(success)
    return BellDiagonalState(*weights), tuple(probs)


@dataclass(frozen=True)
class Level:
    """One nesting level, built once and read by the analytic result, the
    fixed-point analysis and the sampler: the stored B pair, its C
    fodder, the acceptance probability of each of the m pump steps, the
    helper refinement's acceptance (None when there is none) and the
    purified A output."""

    b: BellDiagonalState
    c: BellDiagonalState
    step_probs: tuple[float, ...]
    helper_q: float | None
    a: BellDiagonalState


def level_step(
    below: BellDiagonalState, two_below: BellDiagonalState | None, config: ProtocolConfig, idx: int
) -> Level:
    """Nesting level ``idx`` from the A pairs one and two depths below it:
    a B pair from two copies of ``below``, C fodder from helpers built on
    ``two_below`` (None at level 0, whose fodder is three links), and
    ``pumping_depth(config.m, idx)`` pump steps."""
    b = build_b_pair(below, below, config)
    helper, helper_q = (None, None) if two_below is None else _helper_pair(two_below, config)
    c = build_c_pair(helper, config)
    a, step_probs = pump(b, c, pumping_depth(config.m, idx), config, idx)
    return Level(b, c, step_probs, helper_q, a)


class Ladder:
    """The nesting levels of one config, built bottom-up in order by
    :func:`level_step` and only when a read needs them: level i reads the
    A pairs at depths i and i-1 (depth 0 is one elementary link) and is
    appended to ``levels`` once it is complete; only :meth:`time` computes
    times.  Nothing is kept from a failed build: an unpurifiable pump, or
    a time model that overflows, raises :class:`ProtocolError` on every
    read that reaches its level."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.levels: list[Level] = []
        self._times: list[Duration] = []

    @functools.cached_property
    def _elementary(self) -> BellDiagonalState:
        _link_prob_and_unit(self.config)  # a pinned f0 still needs a link that succeeds
        return self.config.elementary_state

    def pair(self, depth: int) -> BellDiagonalState:
        """The A pair over span 2^(depth+1) - 1; depth 0 is the elementary pair."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth!r}")
        config, levels = self.config, self.levels
        while (idx := len(levels)) < depth:
            below, two_below = self.pair(idx), self.pair(idx - 1) if idx else None
            levels.append(level_step(below, two_below, config, idx))
        return levels[depth - 1].a if depth else self._elementary

    def time(self, depth: int) -> Duration:
        """Mean and variance of the time to build the A pair over span
        2^(depth+1) - 1, computed on first read one level at a time (level i's
        state, then its time) from the times one and two depths below, the
        level's acceptance probabilities and the racing links' maxima; the
        analytic twin of the sampler in :func:`monte_carlo_time`."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth!r}")
        times, tc = self._times, self.config.link.classical_time_s
        while len(times) <= depth:
            idx = len(times) - 1  # the level that builds this depth; -1 is one link
            self.pair(idx + 1)
            try:
                if idx < 0:
                    prob, unit = _link_prob_and_unit(self.config)
                    self._links = [max_of_geometric(k, prob, unit) for k in (1, 2, 3)]
                    times.append(self._links[0])
                    continue
                (one, two, three), level, below = self._links, self.levels[idx], times[idx]
                b = (max_all([below, below, one]) if idx else three).shifted(tc)
                fodder = three
                if idx:
                    half = times[idx - 1]
                    base = (max_all([half, half]) if idx > 1 else two).shifted(tc)
                    helper = restarting_rounds(base, base, tc, [level.helper_q])
                    fodder = max_all([helper, helper, three])
                times.append(restarting_rounds(b, fodder.shifted(tc), tc, level.step_probs))
            except OverflowError as exc:
                where = f"level {idx}" if idx >= 0 else "the elementary link"
                raise ProtocolError(f"expected time overflows a float at {where}") from exc
        return times[depth]


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run the nested scheme through every level up to the target span and
    return the final pair and the total expected time."""
    ladder = Ladder(config)
    total = ladder.time(config.depth).mean
    return ProtocolResult(ladder.pair(config.depth), total)


@dataclass(frozen=True)
class TimeDistribution:
    """Empirical distribution of protocol completion times."""

    mean: float
    std: float
    quantiles: dict[float, float]
    n_trials: int
    samples: np.ndarray


def _link_maxima(rng, rate, unit, count: int, racers: int) -> np.ndarray:
    """``rng.geometric(p, (count, racers)).max(axis=1) * unit`` as floats,
    for ``rate = -log1p(-p)`` and p < 1/3, where numpy inverts the same
    exponentials (racer j is every racers-th draw) but clamps counts >= 2^63."""
    draws = rng.standard_exponential(count * racers)
    out = draws if racers == 1 else np.maximum(draws[0::racers], draws[1::racers])
    for j in range(2, racers):
        np.maximum(out, draws[j::racers], out=out)
    out /= rate
    np.ceil(out, out=out)
    out *= unit
    return out


def _link_max(rng, rate: float, unit: float, racers: int) -> float:
    """One trial of :func:`_link_maxima` on Python floats, from the same
    draw; ``math.ceil`` is integral, so the product has the same bits."""
    return math.ceil(max(rng.standard_exponential(racers).tolist()) / rate) * unit


def monte_carlo_time(config: ProtocolConfig, seed: int, trials: int) -> TimeDistribution:
    """Discrete-event sampling of the protocol's completion time.

    Every elementary link draws a geometric attempt count, concurrent
    stages finish at the max of their children, each purification round
    accepts with its analytically computed probability, and a rejection
    restarts the level.  Level i samples its B pair from level i-1 and
    its C helpers from level i-2, where level -1 is one elementary link.
    Vectorised over trials with a single seeded generator (``seed`` an
    int >= 0, ``trials`` an int >= 1), so results are reproducible.

    Racing links come from :func:`_link_maxima`: for P < 1/3 (links have
    at most 0.197) numpy draws a count as ``ceil(E / -log1p(-P))``, E
    exponential, and ceil is monotone, so a max of counts is one ceil.

    Cost: each rejected round redraws every sub-level of its attempt, so
    the work per trial grows with the product of the per-level restart
    factors; at p = eta = 0.95, m = 4, span 31, 2 trials take over 60 s.
    Restarts end in tails of a few trials, where numpy's per-call cost
    dominates, so a stage asked for one trial, or a restart left with one,
    runs on Python floats (:func:`_link_max`): the same generator calls and
    float operations in the same order, so the same samples.

    Raises :class:`ProtocolError` if a sample, the mean or the std
    overflows a float.
    """
    check_sampler_args(seed, trials)
    global np
    if np is None:
        import numpy as np
    prob, unit = _link_prob_and_unit(config)
    rate, tc = -math.log1p(-prob), config.link.classical_time_s
    # 0-d arrays: numpy converts a Python float operand on every call.
    rate_a, unit_a, tc_a = map(np.array, (rate, unit, tc))
    ladder = Ladder(config)
    top = config.depth
    ladder.pair(top)
    levels = ladder.levels
    rng = np.random.default_rng(seed)

    def sample_links(count: int, racers: int):
        if count == 1:
            return _link_max(rng, rate, unit, racers)
        return _link_maxima(rng, rate_a, unit_a, count, racers)

    def restart_one(sample_base, sample_round, level: int, probs, total: float = 0.0) -> float:
        # restarting for one trial on floats, adding attempts to total in order (0.0 + a is a).
        while True:
            attempt = sample_base(level, 1)
            for q in probs:
                attempt += sample_round(level, 1) + tc
                if not rng.random(1)[0] < q:
                    break
            else:
                return total + attempt
            total += attempt

    def restarting(sample_base, sample_round, level: int, probs, count: int):
        # The sampler's copy of timing.restarting_rounds: each attempt pays a
        # base build, then one round plus tc per entry of probs; a rejection
        # restarts it.  The first attempt is the total; later ones add to it.
        if not probs:
            return sample_base(level, count)
        if count == 1:
            return restart_one(sample_base, sample_round, level, probs)
        total = attempt = sample_base(level, count)
        todo = None  # the trials of total in attempt; None: all of them
        while True:
            attempt += sample_round(level, attempt.size) + tc_a
            ok = rng.random(attempt.size) < probs[0]  # accepted so far
            for q in probs[1:]:
                live = ok.nonzero()[0]
                if not live.size:
                    break
                attempt[live] += sample_round(level, live.size) + tc_a
                ok[live] = rng.random(live.size) < q
            if todo is not None:
                total[todo] += attempt
            redo = (~ok).nonzero()[0]
            if not redo.size:
                return total
            todo = redo if todo is None else todo[redo]
            if todo.size == 1:
                (i,) = todo
                total[i] = restart_one(sample_base, sample_round, level, probs, float(total[i]))
                return total
            attempt = sample_base(level, todo.size)

    def sample_level(level: int, count: int):
        if level < 0:
            return sample_links(count, 1)
        return restarting(sample_b, sample_c, level, levels[level].step_probs, count)

    def race(first, *rest):
        # Concurrent stages finish at their max, then a swap round adds tc.
        if type(first) is float:
            return max((first, *rest)) + tc
        for other in rest:
            np.maximum(first, other, out=first)
        first += tc_a
        return first

    def sample_swapped(level: int, count: int):
        # Two copies of level's output swapped together.
        if level < 0:
            return race(sample_links(count, 2))
        return race(sample_level(level, count), sample_level(level, count))

    def sample_b(level: int, count: int):
        if level == 0:
            return race(sample_links(count, 3))
        below = level - 1
        return race(sample_level(below, count), sample_level(below, count), sample_links(count, 1))

    def sample_c(level: int, count: int):
        if level == 0:
            return race(sample_links(count, 3))
        helper = (sample_swapped, sample_swapped, level - 2, (levels[level].helper_q,), count)
        return race(restarting(*helper), restarting(*helper), sample_links(count, 3))

    with np.errstate(over="ignore", invalid="ignore"):
        samples = sample_level(top - 1, trials)
        if trials == 1:
            samples = np.array([samples])
        peak, mean = samples.max(), float(samples.mean())
        std = float(samples.std(ddof=1)) if trials > 1 else 0.0
        if not math.isfinite(std) and math.isfinite(peak):
            # numpy squares the deviations, which overflow before the std does.
            std = float((samples / peak).std(ddof=1) * peak)
    for name, value in (("sample", peak), ("mean", mean), ("std", std)):
        if not math.isfinite(value):
            raise ProtocolError(f"sampled completion time: the {name} overflows a float")
    qs = (0.5, 0.9, 0.99)
    quantiles = {q: float(np.quantile(samples, q)) for q in qs}
    return TimeDistribution(mean, std, quantiles, trials, samples)
