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

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bell import BellDiagonalState, from_fidelity
from .channel import (
    LinkParams,
    channel_efficiency,
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
        """Pumping depth at a nesting level; levels beyond a per-level
        tuple reuse its last entry."""
        if isinstance(self.m, int):
            return self.m
        return self.m[min(level, len(self.m) - 1)]


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


def _span_pair(
    config: ProtocolConfig, span: int, built: dict[int, PairRecord] | None
) -> PairRecord:
    """Species-A pair over an arbitrary span, composed from already built
    level outputs, halves joined by a swap, or elementary links."""
    if span == 1:
        return elementary_pair(config)
    if built and span in built:
        return built[span]
    if span % 2:
        half = _span_pair(config, (span - 1) // 2, built)
        b = build_b_pair(half, half, config)
        return PairRecord("A", span, b.state, b.expected_time, 1.0, b.time_var)
    prob, unit = _link_prob_and_unit(config)
    half = _span_pair(config, span // 2, built)
    state = swap(half.state, half.state, config.noise)
    if span == 2:
        group = max_of_geometric(2, prob, unit)
    else:
        group = max_all([half.duration, half.duration])
    dur = group.shifted(config.link.tc_s)
    return PairRecord("A", span, state, dur.mean, 1.0, dur.var)


def _helper_pair(
    config: ProtocolConfig, span: int, built: dict[int, PairRecord] | None
) -> tuple[PairRecord, float | None]:
    """Purified pair over the even helper span n-1 used inside C pairs.

    Two half-span pairs are swapped together, then the result is refined
    by a single purification round whose fodder is one more copy of the
    same swap (built on the communication qubits after the stored swap
    frees the interior).  One round suffices because the halves are
    already purified; quality then tracks the level below instead of
    compounding swap losses.

    Returns the helper record and the refining round's acceptance
    probability (None when the refinement is skipped).
    """
    swapped = _span_pair(config, span, built)
    if span % 2:
        return swapped, None
    outcome = purify(swapped.state, swapped.state, config.noise)
    if not outcome.purifiable:
        return swapped, None
    base = swapped.duration
    dur = restarting_rounds(base, base, config.link.tc_s, [outcome.success_prob])
    record = PairRecord("A", span, outcome.state, dur.mean, 1.0, dur.var)
    return record, outcome.success_prob


def _c_pair(
    config: ProtocolConfig, n: int, built: dict[int, PairRecord] | None
) -> tuple[PairRecord, float | None]:
    """:func:`build_c_pair` plus the helper refinement's acceptance
    probability (None for n = 1 or an unrefined helper)."""
    if n < 1:
        raise ValueError(f"build_c_pair needs n >= 1, got {n!r}")
    prob, unit = _link_prob_and_unit(config)
    elem = _elementary_state(config)
    if n == 1:
        state = connect_chain([elem, elem, elem], config.noise)
        dur = max_of_geometric(3, prob, unit).shifted(config.link.tc_s)
        helper_q = None
    else:
        sub, helper_q = _helper_pair(config, n - 1, built)
        state = connect_chain([elem, sub.state, elem, sub.state, elem], config.noise)
        links = max_of_geometric(3, prob, unit)
        group = max_all([sub.duration, sub.duration, links])
        dur = group.shifted(config.link.tc_s)
    return PairRecord("C", 2 * n + 1, state, dur.mean, 1.0, dur.var), helper_q


def build_c_pair(
    config: ProtocolConfig, n: int, built: dict[int, PairRecord] | None = None
) -> PairRecord:
    """Fresh span 2n+1 pair for one pumping round: three elementary links
    bracketing two purified span n-1 pairs, all swapped together.  For
    n = 1 the inner pairs degenerate and the chain is three elementary
    links.

    The inner pairs are the refined helper pairs of :func:`_helper_pair`;
    the two of them occupy disjoint segments and race concurrently with
    the three links.
    """
    return _c_pair(config, n, built)[0]


def _pump(
    b: PairRecord,
    c_supplier: Iterator[PairRecord],
    m: int,
    config: ProtocolConfig,
    level: int | None,
) -> tuple[PairRecord, tuple[float, ...]]:
    """:func:`pump` plus the acceptance probability of each step."""
    where = f" at level {level}" if level is not None else ""
    if b.species != "B":
        raise ValueError(f"pump needs a B pair, got species {b.species!r}")
    if m == 0:
        return PairRecord("A", b.span, b.state, b.expected_time, 1.0, b.time_var), ()
    state = b.state
    probs: list[float] = []
    c_duration = None
    for step in range(m):
        c = next(c_supplier)
        if c.span != b.span:
            raise ValueError(
                f"pump span mismatch{where}: B spans {b.span}, C spans {c.span}"
            )
        outcome = purify(state, c.state, config.noise)
        if not outcome.purifiable:
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{where}: acceptance"
                f" probability {outcome.success_prob:.3e}"
            )
        state = outcome.state
        probs.append(outcome.success_prob)
        c_duration = c.duration
    dur = restarting_rounds(b.duration, c_duration, config.link.tc_s, probs)
    a = PairRecord("A", b.span, state, dur.mean, math.prod(probs), dur.var)
    return a, tuple(probs)


def pump(
    b: PairRecord,
    c_supplier: Iterator[PairRecord],
    m: int,
    config: ProtocolConfig,
    level: int | None = None,
) -> PairRecord:
    """Purify the stored B pair m consecutive times with pairs drawn from
    ``c_supplier``; all rounds must accept, and any rejection restarts
    the level from scratch (that enters the time, not the conditioned
    state).  m = 0 relabels the B pair as A."""
    return _pump(b, c_supplier, m, config, level)[0]


@dataclass(frozen=True)
class Level:
    """One nesting level, built once and read by the analytic result, the
    fixed-point analysis and the sampler: the input span n, the stored B
    pair over 2n+1 segments, its C fodder, the acceptance probability of
    each of the m pump steps, the helper refinement's acceptance (None
    when there is none) and the purified A output."""

    input_span: int
    b: PairRecord
    c: PairRecord
    step_probs: tuple[float, ...]
    helper_q: float | None
    a: PairRecord


def ladder(config: ProtocolConfig) -> Iterator[Level]:
    """Nesting levels over input spans 1, 3, 7, ..., built bottom-up one
    at a time from the level below, without end; level i pumps
    ``config.m_at_level(i)`` times.  An unpurifiable pump raises
    :class:`ProtocolError` when its level is reached."""
    built: dict[int, PairRecord] = {1: elementary_pair(config)}
    n = 1
    for idx in itertools.count():
        b = build_b_pair(built[n], built[n], config)
        c, helper_q = _c_pair(config, n, built)
        a, step_probs = _pump(b, itertools.repeat(c), config.m_at_level(idx), config, idx)
        built[a.span] = a
        yield Level(n, b, c, step_probs, helper_q, a)
        n = a.span


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


def monte_carlo_time(config: ProtocolConfig, seed: int, trials: int) -> TimeDistribution:
    """Discrete-event sampling of the protocol's completion time.

    Every elementary link draws a geometric attempt count, concurrent
    stages finish at the max of their children, each purification round
    accepts with its analytically computed probability, and a rejection
    restarts the level.  Vectorised over trials with a single seeded
    generator, so results are reproducible for a fixed seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    prob, unit = _link_prob_and_unit(config)
    tc = config.link.tc_s
    levels = _build_levels(config)
    by_output_span = {2 * lv.input_span + 1: i for i, lv in enumerate(levels)}
    rng = np.random.default_rng(seed)

    def sample_links(count: int, racers: int) -> np.ndarray:
        draws = rng.geometric(prob, size=(count, racers))
        return draws.max(axis=1).astype(float) * unit

    def sample_span(span: int, count: int) -> np.ndarray:
        if count == 0:
            return np.zeros(0)
        if span == 1:
            return sample_links(count, 1)
        if span in by_output_span:
            return sample_level(by_output_span[span], count)
        if span % 2 == 0:
            if span == 2:
                return sample_links(count, 2) + tc
            half = np.maximum(
                sample_span(span // 2, count), sample_span(span // 2, count)
            )
            return half + tc
        raise ProtocolError(f"no construction for span {span}")

    def sample_b(level: int, count: int) -> np.ndarray:
        n = levels[level].input_span
        if n == 1:
            return sample_links(count, 3) + tc
        stage = np.maximum(sample_span(n, count), sample_span(n, count))
        stage = np.maximum(stage, sample_links(count, 1))
        return stage + tc

    def sample_helper(level: int, count: int) -> np.ndarray:
        half_span = (levels[level].input_span - 1) // 2

        def sample_swapped(cnt: int) -> np.ndarray:
            if half_span == 1:
                return sample_links(cnt, 2) + tc
            stage = np.maximum(
                sample_span(half_span, cnt), sample_span(half_span, cnt)
            )
            return stage + tc

        q = levels[level].helper_q
        total = sample_swapped(count)
        if q is None:
            return total
        total += sample_swapped(count) + tc
        pending = np.flatnonzero(rng.random(count) >= q)
        while pending.size:
            retry = sample_swapped(pending.size) + sample_swapped(pending.size) + tc
            total[pending] += retry
            pending = pending[rng.random(pending.size) >= q]
        return total

    def sample_c(level: int, count: int) -> np.ndarray:
        n = levels[level].input_span
        if n == 1:
            return sample_links(count, 3) + tc
        stage = np.maximum(sample_helper(level, count), sample_helper(level, count))
        stage = np.maximum(stage, sample_links(count, 3))
        return stage + tc

    def sample_level(level: int, count: int) -> np.ndarray:
        step_probs = levels[level].step_probs
        total = np.zeros(count)
        pending = np.arange(count)
        while pending.size:
            n_pend = pending.size
            attempt = sample_b(level, n_pend)
            alive = np.ones(n_pend, dtype=bool)
            for q in step_probs:
                sub = np.flatnonzero(alive)
                if sub.size == 0:
                    break
                attempt[sub] += sample_c(level, sub.size) + tc
                accepted = rng.random(sub.size) < q
                alive[sub[~accepted]] = False
            total[pending] += attempt
            pending = pending[~alive] if step_probs else pending[:0]
        return total

    samples = sample_span(config.target_span, trials)
    qs = (0.5, 0.9, 0.99)
    quantiles = {q: float(np.quantile(samples, q)) for q in qs}
    return TimeDistribution(
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if trials > 1 else 0.0,
        quantiles=quantiles,
        n_trials=trials,
        samples=samples,
    )
