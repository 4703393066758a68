"""The nested two-qubit-per-node repeater protocol.

Each nesting level turns purified pairs spanning n segments into pairs
spanning 2n+1: two flanking pairs and a central elementary link are
swapped into a stored B pair, which is then pumped m times with freshly
built same-span C pairs; the survivor is the level's purified A pair.
C pairs bridge 2n+1 segments with three elementary links and two pairs
of span n-1, each swapped together from pairs one level further down and
tightened by a single purification round; no node ever needs more than
two qubits.

Fidelity bookkeeping is deterministic (conditioned on every purification
accepting); the time bookkeeping propagates the first two moments of the
random completion times and is cross-checked by a discrete-event Monte
Carlo sampler of the same process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .bell import BellDiagonalState, from_fidelity
from .channel import (
    LinkParams,
    channel_efficiency,
    check_sampler_args,
    entangle_success_prob,
    link_state,
)
from .ops import NoiseParams, connect_chain, purify, swap
from .timing import (
    Duration,
    max_all,
    max_of_geometric,
    restarting_rounds,
)

#: numpy, imported on the first monte_carlo_time call so the analytic path
#: never loads it; looked up at each call, so a replacement here takes effect.
np = None


class ProtocolError(RuntimeError):
    """A protocol construction failed (for example an unpurifiable pump
    step); the message carries the nesting-level context."""


def default_schedule(target_span: int) -> tuple[int, ...]:
    """Level input spans 1, 3, 7, ... for a target span of the form
    2^k - 1."""
    if target_span < 1:
        raise ValueError(f"target_span must be >= 1, got {target_span!r}")
    levels = []
    span = 1
    while span < target_span:
        levels.append(span)
        span = 2 * span + 1
    if span != target_span:
        raise ValueError(
            f"target_span must be of the form 2^k - 1 (1, 3, 7, 15, ...), got {target_span!r}"
        )
    return tuple(levels)


def round_span_up(span: int) -> int:
    """Smallest schedulable span (2^k - 1) that is >= ``span``."""
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span!r}")
    out = 1
    while out < span:
        out = 2 * out + 1
    return out


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
    the target span.  The nesting schedule (level input spans 1, 3, 7,
    ...) is derived from ``target_span`` and cannot be passed.

    ``f0`` optionally pins the elementary-pair fidelity directly instead
    of deriving it from the link parameters; the time model always uses
    the link parameters.
    """

    link: LinkParams
    noise: NoiseParams
    m: int | tuple[int, ...] = 3
    target_span: int = 15
    schedule: tuple[int, ...] = field(init=False)
    f0: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "schedule", default_schedule(self.target_span))
        if isinstance(self.m, int):
            if self.m < 0:
                raise ValueError(f"m must be >= 0, got {self.m!r}")
        else:
            ms = tuple(self.m)
            object.__setattr__(self, "m", ms)
            if len(ms) != len(self.schedule):
                raise ValueError(
                    f"per-level m needs {len(self.schedule)} entries, got {len(ms)}"
                )
            if any(mi < 0 for mi in ms):
                raise ValueError(f"per-level m entries must be >= 0, got {ms!r}")
        if self.f0 is not None and not 0.0 <= self.f0 <= 1.0:
            raise ValueError(f"f0 must lie in [0, 1], got {self.f0!r}")

    def m_at_level(self, level: int) -> int:
        return pumping_depth(self.m, level)


@dataclass(frozen=True)
class PairRecord:
    """One entangled pair with its provenance: purity species (A fully
    purified, B stored-and-being-pumped, C freshly built fodder), the
    number of elementary segments it spans, its Bell-diagonal state, the
    expected wall-clock time to build it and the probability of the
    conditioning event that produced it.

    ``time_var`` is the variance of the build time, carried for the
    concurrency model; it is not part of the public contract.
    """

    species: str
    span: int
    state: BellDiagonalState
    expected_time: float
    success_prob: float
    time_var: float = 0.0

    def __post_init__(self):
        if self.species not in ("A", "B", "C"):
            raise ValueError(f"species must be A, B or C, got {self.species!r}")
        if self.span < 1:
            raise ValueError(f"span must be >= 1, got {self.span!r}")
        if self.expected_time < 0:
            raise ValueError(f"expected_time must be >= 0, got {self.expected_time!r}")

    @property
    def duration(self) -> Duration:
        return Duration(self.expected_time, self.time_var)


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
    return prob, config.link.attempt_duration_s


def _elementary_state(config: ProtocolConfig) -> BellDiagonalState:
    if config.f0 is not None:
        return from_fidelity(config.f0, config.noise.upsilon)
    return link_state(
        config.link.p_em, channel_efficiency(config.link), config.noise.upsilon
    )


def elementary_pair(config: ProtocolConfig) -> PairRecord:
    """Freshly heralded pair over one segment: species A, span 1."""
    prob, unit = _link_prob_and_unit(config)
    dur = max_of_geometric(1, prob, unit)
    return PairRecord(
        species="A",
        span=1,
        state=_elementary_state(config),
        expected_time=dur.mean,
        success_prob=prob,
        time_var=dur.var,
    )


def build_b_pair(
    a_left: PairRecord, a_right: PairRecord, config: ProtocolConfig
) -> PairRecord:
    """Connect two span-n A pairs through a central elementary link into
    a span 2n+1 B pair.  The three constituents occupy disjoint qubits
    and are generated concurrently; one heralded swap round follows."""
    if a_left.species != "A" or a_right.species != "A":
        raise ValueError("build_b_pair needs two A pairs")
    if a_left.span != a_right.span:
        raise ValueError(
            f"span mismatch: {a_left.span} vs {a_right.span} segments"
        )
    n = a_left.span
    prob, unit = _link_prob_and_unit(config)
    elem = _elementary_state(config)
    state = connect_chain([a_left.state, elem, a_right.state], config.noise)
    if n == 1:
        group = max_of_geometric(3, prob, unit)
    else:
        link = max_of_geometric(1, prob, unit)
        group = max_all([a_left.duration, a_right.duration, link])
    dur = group.shifted(config.link.tc_s)
    return PairRecord("B", 2 * n + 1, state, dur.mean, 1.0, dur.var)


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

    Returns the helper record and the refining round's acceptance
    probability.
    """
    state = swap(half.state, half.state, config.noise)
    if half.span == 1:
        prob, unit = _link_prob_and_unit(config)
        group = max_of_geometric(2, prob, unit)
    else:
        group = max_all([half.duration, half.duration])
    base = group.shifted(config.link.tc_s)
    outcome = purify(state, state, config.noise)
    dur = restarting_rounds(base, base, config.link.tc_s, [outcome.success_prob])
    record = PairRecord("A", 2 * half.span, outcome.state, dur.mean, 1.0, dur.var)
    return record, outcome.success_prob


def build_c_pair(inner: PairRecord | None, config: ProtocolConfig) -> PairRecord:
    """Fresh pair for one pumping round: three elementary links
    bracketing two copies of the purified ``inner`` pair, all swapped
    together into a span 2 * inner.span + 3 pair.  ``inner`` None is the
    lowest level, where the chain is three elementary links (span 3).

    ``inner`` is the refined helper pair of :func:`_helper_pair`; its two
    copies occupy disjoint segments and race concurrently with the three
    links.
    """
    prob, unit = _link_prob_and_unit(config)
    elem = _elementary_state(config)
    links = max_of_geometric(3, prob, unit)
    if inner is None:
        span, state, group = 3, connect_chain([elem, elem, elem], config.noise), links
    else:
        if inner.species != "A":
            raise ValueError("build_c_pair needs an A pair")
        span = 2 * inner.span + 3
        state = connect_chain([elem, inner.state, elem, inner.state, elem], config.noise)
        group = max_all([inner.duration, inner.duration, links])
    dur = group.shifted(config.link.tc_s)
    return PairRecord("C", span, state, dur.mean, 1.0, dur.var)


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
    enters the time, not the conditioned state).  m = 0 relabels the B
    pair as A.

    Returns the A pair and the acceptance probability of each step."""
    where = f" at level {level}" if level is not None else ""
    if b.species != "B":
        raise ValueError(f"pump needs a B pair, got species {b.species!r}")
    if c.span != b.span:
        raise ValueError(
            f"pump span mismatch{where}: B spans {b.span}, C spans {c.span}"
        )
    if m == 0:
        return PairRecord("A", b.span, b.state, b.expected_time, 1.0, b.time_var), ()
    state = b.state
    probs: list[float] = []
    for step in range(m):
        outcome = purify(state, c.state, config.noise)
        if not outcome.purifiable:
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{where}: acceptance"
                f" probability {outcome.success_prob:.3e}"
            )
        state = outcome.state
        probs.append(outcome.success_prob)
    dur = restarting_rounds(b.duration, c.duration, config.link.tc_s, probs)
    a = PairRecord("A", b.span, state, dur.mean, math.prod(probs), dur.var)
    return a, tuple(probs)


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


def ladder(config: ProtocolConfig) -> Iterator[Level]:
    """Nesting levels over input spans 1, 3, 7, ..., built bottom-up one
    at a time from the two levels below, without end; level i pumps
    ``config.m_at_level(i)`` times.  An unpurifiable pump, or a time
    model that overflows, raises :class:`ProtocolError` when its level
    is reached."""
    below2, below = None, elementary_pair(config)
    for idx in itertools.count():
        try:
            b = build_b_pair(below, below, config)
            if below2 is None:
                helper, helper_q = None, None
            else:
                helper, helper_q = _helper_pair(below2, config)
            c = build_c_pair(helper, config)
            a, step_probs = pump(b, c, config.m_at_level(idx), config, idx)
        except OverflowError as exc:
            raise ProtocolError(f"expected time overflows a float at level {idx}") from exc
        yield Level(b, c, step_probs, helper_q, a)
        below2, below = below, a


def _build_levels(config: ProtocolConfig) -> list[Level]:
    """The ladder up to the configured target span."""
    return list(itertools.islice(ladder(config), len(config.schedule)))


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run the nested scheme across the whole schedule and return the
    final pair, the per-level A-pair snapshots and the total expected
    time."""
    levels = _build_levels(config)
    final = levels[-1].a if levels else elementary_pair(config)
    return ProtocolResult(
        final=final,
        per_level=tuple(level.a for level in levels),
        total_expected_time=final.expected_time,
    )


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
    rate, unit, tc = map(np.array, (-math.log1p(-prob), unit, config.link.tc_s))
    levels = _build_levels(config)
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

    samples = sample_level(len(levels) - 1, trials)
    qs = (0.5, 0.9, 0.99)
    quantiles = {q: float(np.quantile(samples, q)) for q in qs}
    return TimeDistribution(
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if trials > 1 else 0.0,
        quantiles=quantiles,
        n_trials=trials,
        samples=samples,
    )
