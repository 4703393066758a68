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
class PairRecord:
    """One entangled pair with its provenance: purity species (A fully
    purified, B stored-and-being-pumped, C freshly built fodder), the
    number of elementary segments it spans and its Bell-diagonal state."""

    species: str
    span: int
    state: BellDiagonalState

    def __post_init__(self):
        if self.species not in ("A", "B", "C"):
            raise ValueError(f"species must be A, B or C, got {self.species!r}")
        if self.span < 1:
            raise ValueError(f"span must be >= 1, got {self.span!r}")


@dataclass(frozen=True)
class ProtocolResult:
    """Final pair, per-level snapshots and the total expected time."""

    final: PairRecord
    per_level: tuple[PairRecord, ...]
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


def elementary_pair(config: ProtocolConfig) -> PairRecord:
    """Freshly heralded pair over one segment: species A, span 1."""
    _link_prob_and_unit(config)  # a pinned f0 still needs a link that succeeds
    return PairRecord("A", 1, config.elementary_state)


def build_b_pair(
    a_left: PairRecord, a_right: PairRecord, config: ProtocolConfig
) -> PairRecord:
    """Connect two span-n A pairs through a central elementary link into
    a span 2n+1 B pair.  The three constituents occupy disjoint qubits
    and are generated concurrently; one heralded swap round follows."""
    if a_left.species != "A" or a_right.species != "A":
        raise ValueError("build_b_pair needs two A pairs")
    if a_left.span != a_right.span:
        raise ValueError(f"span mismatch: {a_left.span} vs {a_right.span} segments")
    elem = config.elementary_state
    state = connect_chain([a_left.state, elem, a_right.state], config.noise)
    return PairRecord("B", 2 * a_left.span + 1, state)


def _helper_pair(half: PairRecord, config: ProtocolConfig) -> tuple[PairRecord, float]:
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

    Returns the helper record and its refining round's acceptance probability.
    """
    state = swap(half.state, half.state, config.noise)
    outcome = purify(state, state, config.noise)
    return PairRecord("A", 2 * half.span, outcome.state), outcome.success_prob


def build_c_pair(inner: PairRecord | None, config: ProtocolConfig) -> PairRecord:
    """Fresh pair for one pumping round: three elementary links
    bracketing two copies of the purified ``inner`` pair, all swapped
    together into a span 2 * inner.span + 3 pair.  ``inner`` None is the
    lowest level, where the chain is three elementary links (span 3).

    ``inner`` is the refined helper pair of :func:`_helper_pair`; its two
    copies occupy disjoint segments and race concurrently with the three
    links.
    """
    elem = config.elementary_state
    if inner is None:
        return PairRecord("C", 3, connect_chain([elem, elem, elem], config.noise))
    if inner.species != "A":
        raise ValueError("build_c_pair needs an A pair")
    state = connect_chain([elem, inner.state, elem, inner.state, elem], config.noise)
    return PairRecord("C", 2 * inner.span + 3, state)


def _at_level(level: int | None) -> str:
    return f" at level {level}" if level is not None else ""


def pump(
    b: PairRecord,
    c: PairRecord,
    m: int,
    config: ProtocolConfig,
    level: int | None = None,
) -> tuple[PairRecord, tuple[float, ...]]:
    """Purify the stored B pair m consecutive times, each round with a
    fresh copy of the same-span fodder pair ``c``; all rounds must
    accept, and any rejection restarts the level from scratch (that
    enters :meth:`Ladder.time`, not the conditioned state).  m = 0 relabels
    the B pair as A.

    Returns the A pair and the acceptance probability of each step."""
    if b.species != "B":
        raise ValueError(f"pump needs a B pair, got species {b.species!r}")
    if c.span != b.span:
        raise ValueError(
            f"pump span mismatch{_at_level(level)}: B spans {b.span}, C spans {c.span}"
        )
    if m == 0:
        return PairRecord("A", b.span, b.state), ()
    weights, fodder = weights_of(b.state), weights_of(c.state)
    probs: list[float] = []
    for step in range(m):
        raw, success = purify_weights(weights, fodder, config.noise)
        if raw is None:
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{_at_level(level)}: acceptance"
                f" probability {success:.3e}"
            )
        weights = normalise(raw)
        probs.append(success)
    return PairRecord("A", b.span, BellDiagonalState(*weights)), tuple(probs)


@dataclass(frozen=True)
class Level:
    """One nesting level, built once and read by the analytic result, the
    fixed-point analysis and the sampler: the stored B pair, its C
    fodder, the acceptance probability of each of the m pump steps, the
    helper refinement's acceptance (None when there is none) and the
    purified A output."""

    b: PairRecord
    c: PairRecord
    step_probs: tuple[float, ...]
    helper_q: float | None
    a: PairRecord


class Ladder:
    """The nesting levels of one config, built bottom-up in order and only
    when a read needs them: level i stores a B pair from two copies of
    level i-1's A pair (level -1 is one elementary link), pumps it
    ``pumping_depth(config.m, i)`` times with C fodder from helpers at
    level i-2, and is appended to ``levels`` once it is complete; only
    :meth:`time` computes times.  Nothing is kept from a failed build: an
    unpurifiable pump, or a time model that overflows, raises
    :class:`ProtocolError` on every read that reaches its level."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.levels: list[Level] = []
        self._times: list[Duration] = []

    @functools.cached_property
    def _elementary(self) -> PairRecord:
        return elementary_pair(self.config)

    def pair(self, depth: int) -> PairRecord:
        """The A pair over span 2^(depth+1) - 1; depth 0 is the elementary pair."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth!r}")
        config, levels = self.config, self.levels
        while len(levels) < depth:
            idx = len(levels)
            below = self.pair(idx)
            b = build_b_pair(below, below, config)
            helper, helper_q = _helper_pair(self.pair(idx - 1), config) if idx else (None, None)
            c = build_c_pair(helper, config)
            a, step_probs = pump(b, c, pumping_depth(config.m, idx), config, idx)
            levels.append(Level(b, c, step_probs, helper_q, a))
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
    return the final pair, the per-level A-pair snapshots and the total
    expected time."""
    ladder = Ladder(config)
    total = ladder.time(config.depth).mean
    return ProtocolResult(ladder.pair(config.depth), tuple(lv.a for lv in ladder.levels), total)


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
    """
    check_sampler_args(seed, trials)
    global np
    if np is None:
        import numpy as np
    prob, unit = _link_prob_and_unit(config)
    # 0-d arrays: numpy converts a Python float operand on every call.
    rate, unit, tc = map(np.array, (-math.log1p(-prob), unit, config.link.classical_time_s))
    ladder = Ladder(config)
    top = config.depth
    ladder.pair(top)
    levels = ladder.levels
    rng = np.random.default_rng(seed)
    sample_links = functools.partial(_link_maxima, rng, rate, unit)

    def restarting(sample_base, sample_round, level: int, probs, count: int) -> np.ndarray:
        # The sampler's copy of timing.restarting_rounds: each attempt pays a
        # base build, then one round plus tc per entry of probs; a rejection
        # restarts it.  The first attempt is the total; later ones add to it.
        if not probs:
            return sample_base(level, count)
        total = attempt = sample_base(level, count)
        todo = None  # the trials of total in attempt; None: all of them
        while True:
            attempt += sample_round(level, attempt.size) + tc
            ok = rng.random(attempt.size) < probs[0]  # accepted so far
            for q in probs[1:]:
                live = ok.nonzero()[0]
                if not live.size:
                    break
                attempt[live] += sample_round(level, live.size) + tc
                ok[live] = rng.random(live.size) < q
            if todo is not None:
                total[todo] += attempt
            redo = (~ok).nonzero()[0]
            if not redo.size:
                return total
            todo = redo if todo is None else todo[redo]
            attempt = sample_base(level, todo.size)

    def sample_level(level: int, count: int) -> np.ndarray:
        if level < 0:
            return sample_links(count, 1)
        return restarting(sample_b, sample_c, level, levels[level].step_probs, count)

    def race(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
        # Concurrent stages finish at their max, then a swap round adds tc.
        for other in rest:
            np.maximum(first, other, out=first)
        first += tc
        return first

    def sample_swapped(level: int, count: int) -> np.ndarray:
        # Two copies of level's output swapped together.
        if level < 0:
            return race(sample_links(count, 2))
        return race(sample_level(level, count), sample_level(level, count))

    def sample_b(level: int, count: int) -> np.ndarray:
        if level == 0:
            return race(sample_links(count, 3))
        below = level - 1
        return race(sample_level(below, count), sample_level(below, count), sample_links(count, 1))

    def sample_c(level: int, count: int) -> np.ndarray:
        if level == 0:
            return race(sample_links(count, 3))
        helper = (sample_swapped, sample_swapped, level - 2, (levels[level].helper_q,), count)
        return race(restarting(*helper), restarting(*helper), sample_links(count, 3))

    samples = sample_level(top - 1, trials)
    qs = (0.5, 0.9, 0.99)
    quantiles = {q: float(np.quantile(samples, q)) for q in qs}
    return TimeDistribution(
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if trials > 1 else 0.0,
        quantiles=quantiles,
        n_trials=trials,
        samples=samples,
    )
