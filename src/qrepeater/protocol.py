"""The nested two-qubit-per-node repeater protocol.

Each nesting level turns purified pairs spanning n segments into pairs
spanning 2n+1: two flanking pairs and a central elementary link are
swapped into a stored B pair, which is then pumped m times with freshly
built same-span C pairs; the survivor is the level's purified A pair.
C pairs bridge 2n+1 segments with three elementary links and two pairs
of span n-1, each swapped together from pairs one level further down and
tightened by a single purification round.  The paper's design needs two
qubits per node; the time model's concurrent schedule is not yet checked
against that bound.  What each stage swaps together is written once, in
the level recipe (:func:`_b_parts`, :func:`_helper_parts`,
:func:`_c_parts`).  One :class:`Ladder` per config builds the levels from
it, each once and only when read; :func:`run_protocol`, the sampler and
the fixed-point analysis all read it.

Fidelity bookkeeping is deterministic (conditioned on every purification
accepting).  :meth:`Ladder.fold` reads the recipe as the waiting-time
process: :meth:`Ladder.time` folds it in timing's moments and
:func:`monte_carlo_time` samples it, the check on those moments.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .bell import BellDiagonalState, Checked, from_fidelity, normalise
from .channel import (
    NEVER_SUCCEEDS,
    LinkParams,
    as_index,
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


class _Protocol(NamedTuple):
    link: LinkParams
    noise: NoiseParams
    m: int | tuple[int, ...]
    target_span: int
    f0: float | None


class ProtocolConfig(Checked, _Protocol):
    """Everything a protocol run needs: the physical link, the local
    noise, the pumping depth m (one int, or a tuple of one per nesting
    level) and the target span.  The nesting depth k (target span
    2^(k+1) - 1) is :attr:`depth`, derived, and cannot be passed.

    ``f0`` optionally pins the elementary-pair fidelity directly instead
    of deriving it from the link parameters; the time model always uses
    the link parameters.
    """

    def __new__(cls, link, noise, m=3, target_span=15, f0=None):
        depth = nesting_depth(target_span)
        per_level = not isinstance(m, bool) and hasattr(m, "__iter__")
        entries = tuple(m) if per_level else (m,)
        if per_level and len(entries) != depth:
            raise ValueError(f"per-level m needs {depth} entries, got {len(entries)}")
        checked = tuple(as_index(mi, 0) for mi in entries)
        if None in checked:
            level = checked.index(None)
            what = f"m at level {level} must be an int" if per_level else (
                "m must be an int or one int per level, each")
            raise ValueError(f"{what} >= 0, got {entries[level]!r}")
        m = checked if per_level else checked[0]
        if f0 is not None and not 0.0 <= f0 <= 1.0:
            raise ValueError(f"f0 must lie in [0, 1], got {f0!r}")
        return super().__new__(cls, link, noise, m, target_span, f0)

    @property
    def depth(self) -> int:
        return nesting_depth(self.target_span)

    @functools.cached_property
    def elementary_state(self) -> BellDiagonalState:
        """A fresh one-segment pair's state (``f0`` if pinned), kept once read."""
        if self.f0 is not None:
            return from_fidelity(self.f0, self.noise.upsilon)
        return link_state(self.link.p_em, channel_efficiency(self.link), self.noise.upsilon)


class ProtocolResult(NamedTuple):
    """Final pair and the total expected time."""

    final: BellDiagonalState
    total_expected_time: float


def _link_prob_and_unit(config: ProtocolConfig) -> tuple[float, float]:
    prob = entangle_success_prob(config.link.p_em, channel_efficiency(config.link))
    if prob <= 0.0:
        raise ProtocolError(NEVER_SUCCEEDS)
    if 1.0 - prob == 1.0:
        raise ProtocolError(
            f"elementary link success probability P = {prob:.3e} is below float"
            " resolution (1 - P rounds to 1)"
        )
    return prob, config.link.attempt_duration_s


# The level recipe: what each stage of level i swaps together, in chain order.
def _b_parts(a_left, link, a_right) -> list:
    return [a_left, link, a_right]  # B: A_i, link, A_i


def _helper_parts(half) -> list:
    return [half, half]  # the helper's halves A_{i-1}, swapped, then refined once


def _c_parts(helper, link) -> list:  # helper None at level 0
    return [link] * 3 if helper is None else [link, helper, link, helper, link]


def build_b_pair(
    a_left: BellDiagonalState, a_right: BellDiagonalState, config: ProtocolConfig
) -> BellDiagonalState:
    """Connect two span-n A pairs through a central elementary link into
    a span 2n+1 B pair.  The three constituents occupy disjoint qubits
    and are generated concurrently; one heralded swap round follows."""
    return connect_chain(_b_parts(a_left, config.elementary_state, a_right), config.noise)


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
    state = swap(*_helper_parts(half), config.noise)
    outcome = purify(state, state, config.noise)
    return outcome.state, outcome.success_prob


def build_c_pair(inner: BellDiagonalState | None, config: ProtocolConfig) -> BellDiagonalState:
    """Fresh pair for one pumping round: three elementary links
    bracketing two copies of the span-h helper ``inner`` (:func:`_helper_pair`),
    all swapped together into a span 2h + 3 pair.  ``inner`` None is the
    lowest level, where the chain is three elementary links (span 3)."""
    return connect_chain(_c_parts(inner, config.elementary_state), config.noise)


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
    weights = b
    probs: list[float] = []
    for step in range(m):
        raw, success = purify_weights(weights, c, config.noise)
        if raw is None:
            where = f" at level {level}" if level is not None else ""
            raise ProtocolError(
                f"unpurifiable pump step {step + 1}{where}: acceptance"
                f" probability {success:.3e}"
            )
        weights = normalise(raw)
        probs.append(success)
    return BellDiagonalState(*weights), tuple(probs)


class Level(NamedTuple):
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
    ``two_below`` (None at level 0: three links), as the level recipe says,
    and ``pumping_depth(config.m, idx)`` pump steps."""
    b = build_b_pair(below, below, config)
    helper, helper_q = (None, None) if two_below is None else _helper_pair(two_below, config)
    c = build_c_pair(helper, config)
    a, step_probs = pump(b, c, pumping_depth(config.m, idx), config, idx)
    return Level(b, c, step_probs, helper_q, a)


class Ladder:
    """The nesting levels of one config, built bottom-up in order by
    :func:`level_step` and only when a read needs them; level i reads the
    A pairs at depths i and i-1, and :meth:`time` and :func:`monte_carlo_time`
    fold :meth:`fold` in two algebras.  Nothing is kept from a failed build:
    an unpurifiable pump, or a time model that overflows, raises
    :class:`ProtocolError` on every read that reaches its level."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.levels: list[Level] = []
        self._times: list[Duration] = []

    @functools.cached_property
    def _elementary(self) -> BellDiagonalState:
        _link_prob_and_unit(self.config)  # a pinned f0 still needs a link that succeeds
        return self.config.elementary_state

    @functools.cached_property
    def _moments(self) -> tuple:
        # timing's algebra, its names read here on the first time, so a patched one counts;
        # k racing links' moments are computed on the first request for that k.
        prob, unit = _link_prob_and_unit(self.config)
        geometric, maximum, shift = max_of_geometric, max_all, Duration.shifted
        racing = functools.cache(lambda k: geometric(k, prob, unit))
        def race(pairs: list, links: int, wait: float) -> Duration:
            return shift(maximum([*pairs, racing(links)] if links else pairs), wait)
        return race, restarting_rounds

    def pair(self, depth: int) -> BellDiagonalState:
        """The A pair over span 2^(depth+1) - 1; depth 0 is the elementary pair."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth!r}")
        config, levels = self.config, self.levels
        while (idx := len(levels)) < depth:
            below, two_below = self.pair(idx), self.pair(idx - 1) if idx else None
            levels.append(level_step(below, two_below, config, idx))
        return levels[depth - 1].a if depth else self._elementary

    def fold(self, algebra: tuple, values: list, depth: int):
        """The waiting-time process to the A pair over span 2^(depth+1) - 1 in
        ``algebra = (race, restart)``, its two verbs.  ``race(pairs, links,
        wait)`` is one stage: the pair values in chain order and ``links``
        elementary links racing as one racer (none when 0), then a wait.
        ``restart(base, round, tc, probs)`` pays a base build, then one round
        plus tc per entry of ``probs``, any rejection restarting it.  Each
        stage races the parts the level recipe lists (a depth-0 pair is a
        link) and waits tc.  Appends each missing depth to ``values`` (depth
        0 is one link, ``race([], 1, 0.0)``; level i's state first)."""
        race, restart = algebra
        tc, link = self.config.link.classical_time_s, object()
        def chain(parts: list):
            pairs = [part for part in parts if part is not link]
            return race(pairs, len(parts) - len(pairs), tc)
        if not values:
            values.append(race([], 1, 0.0))
        while (idx := len(values) - 1) < depth:  # the level that builds the next depth
            self.pair(idx + 1)
            level, helper = self.levels[idx], None
            below, two_below = values[idx] if idx else link, values[idx - 1] if idx > 1 else link
            if idx:  # C fodder from helpers, each its halves refined by one round
                base = chain(_helper_parts(two_below))
                helper = restart(base, base, tc, (level.helper_q,))
            b, fodder = chain(_b_parts(below, link, below)), chain(_c_parts(helper, link))
            values.append(restart(b, fodder, tc, level.step_probs))
        return values[depth]

    def time(self, depth: int) -> Duration:
        """Mean and variance of the time to build the A pair over span
        2^(depth+1) - 1, computed once, on first read: :meth:`fold` in
        timing's moments, a stage's race from ``max_of_geometric``,
        ``max_all`` and ``Duration.shifted``, a restart ``restarting_rounds``."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth!r}")
        try:
            return self.fold(self._moments, self._times, depth)
        except OverflowError as exc:
            where = f"level {len(self._times) - 1}" if self._times else "the elementary link"
            raise ProtocolError(f"expected time overflows a float at {where}") from exc


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run the nested scheme through every level up to the target span and
    return the final pair and the total expected time."""
    ladder = Ladder(config)
    total = ladder.time(config.depth).mean
    return ProtocolResult(ladder.pair(config.depth), total)


class TimeDistribution(NamedTuple):
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


def _link_max_pair(rng, rate: float, unit: float, racers: int) -> tuple[float, float]:
    """Two consecutive :func:`_link_max` trials from one draw of 2 * racers."""
    d = rng.standard_exponential(2 * racers).tolist()
    return math.ceil(max(d[:racers]) / rate) * unit, math.ceil(max(d[racers:]) / rate) * unit


def monte_carlo_time(config: ProtocolConfig, seed: int, trials: int) -> TimeDistribution:
    """Discrete-event sampling of the protocol's completion time:
    :meth:`Ladder.fold` in a sampler algebra, whose values draw ``count``
    trials from one seeded generator (``seed`` an int >= 0, ``trials`` an
    int >= 1), so results are reproducible.  A stage's race draws its pairs
    in chain order, then a geometric attempt count per link, and finishes
    at their max plus its wait; in a restart each purification round
    accepts with its computed probability, and a rejection restarts the
    stage.

    Racing links come from :func:`_link_maxima`: for P < 1/3 (links have
    at most 0.197) numpy draws a count as ``ceil(E / -log1p(-P))``, E
    exponential, and ceil is monotone, so a max of counts is one ceil.

    Cost: each rejected round redraws every sub-level of its attempt, so
    the work per trial grows with the product of the per-level restart
    factors; at p = eta = 0.95, m = 4, span 31, 2 trials take over 60 s.
    Restarts end in tails of a few trials, where numpy's per-call cost
    dominates, so a stage asked for one trial, or a restart left with one,
    runs on Python floats (:func:`_link_max`), and a restart whose base and
    round race the same links (level 0, level 1's helpers) draws both in
    one call.  Every path takes the same variates in the same order: the
    same samples.  Raises :class:`ProtocolError` if a sample, the mean or
    the std overflows a float.
    """
    seed, trials = check_sampler_args(seed, trials)
    global np
    if np is None:
        import numpy as np
    prob, unit = _link_prob_and_unit(config)
    rate = -math.log1p(-prob)
    rate_a, unit_a = np.array(rate), np.array(unit)  # 0-d: numpy converts a float per call
    rng = np.random.default_rng(seed)

    def race(pairs: list, links: int, wait: float):
        wait_a = np.array(wait)
        if not pairs:  # links only: level 0's stages and level 1's helpers, most draws
            def draw(count: int):
                if count == 1:
                    return _link_max(rng, rate, unit, links) + wait
                out = _link_maxima(rng, rate_a, unit_a, count, links)
                out += wait_a
                return out
        else:
            def draw(count: int):
                # The pairs in chain order, then the links.
                racers = [x(count) for x in pairs]
                if links:
                    racers.append(_link_max(rng, rate, unit, links) if count == 1
                                  else _link_maxima(rng, rate_a, unit_a, count, links))
                if count == 1:
                    return max(racers) + wait
                out, *rest = racers
                for other in rest:
                    np.maximum(out, other, out=out)
                out += wait_a
                return out
        draw.merge = 0 if pairs else links, wait  # a restart draws base and round at once
        return draw

    def restart(base, round_, tc: float, probs):
        # timing.restarting_rounds' process; a rejection restarts the attempt.
        if not probs:
            return base
        racers, wait = base.merge if base.merge == round_.merge else (0, 0.0)
        tc_a, wait_a = np.array(tc), np.array(wait)
        def opening(count: int):
            # An attempt's base build, first round and tc; racers: one draw, base rows first.
            if not racers:
                out, first = base(count), round_(count)
            elif count == 1:
                out, first = _link_max_pair(rng, rate, unit, racers)
                out, first = out + wait, first + wait
            else:
                out = _link_maxima(rng, rate_a, unit_a, 2 * count, racers)
                out += wait_a
                out, first = out[:count], out[count:]
            out += first + (tc if count == 1 else tc_a)
            return out
        def restart_one(total: float = 0.0) -> float:
            # One trial on floats, adding attempts to total in order (0.0 + a is a).
            while True:
                attempt = opening(1)
                ok = rng.random(1)[0] < probs[0]
                for q in probs[1:]:
                    if not ok:
                        break
                    attempt += round_(1) + tc
                    ok = rng.random(1)[0] < q
                if ok:
                    return total + attempt
                total += attempt
        def draw(count: int):
            # The first attempt is the total; later ones add to it.
            if count == 1:
                return restart_one()
            total = attempt = opening(count)
            todo = None  # the trials of total in attempt; None: all of them
            while True:
                ok = rng.random(attempt.size) < probs[0]  # accepted so far
                for q in probs[1:]:
                    live = ok.nonzero()[0]
                    if not live.size:
                        break
                    attempt[live] += round_(live.size) + tc_a
                    ok[live] = rng.random(live.size) < q
                if todo is not None:
                    total[todo] += attempt
                redo = (~ok).nonzero()[0]
                if not redo.size:
                    return total
                todo = redo if todo is None else todo[redo]
                if todo.size == 1:
                    total[todo[0]] = restart_one(float(total[todo[0]]))
                    return total
                attempt = opening(todo.size)
        return draw

    draw = Ladder(config).fold((race, restart), [], config.depth)
    with np.errstate(over="ignore", invalid="ignore"):
        # A copy: level-0 arrays are halves of merged draws, and one trial is a float.
        samples = np.array(draw(trials), ndmin=1)
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
