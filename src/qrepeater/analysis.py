"""Fixed-point and asymptotic fidelity analysis, plus parameter sweeps.

Pumping a stored pair forever does not push its fidelity to one when
gates and measurements err: the gain per round shrinks until it balances
the noise injected by the round itself, and the fidelity stalls at a
fixed point that depends on the distance.  Across nesting levels those
fixed points approach a distance-independent asymptote.  Both limits are
computed here by direct iteration of the same maps the protocol uses,
reading the levels of one :class:`~qrepeater.protocol.Ladder` per config
that also keeps the fixed point at each depth.  Both stop by the module
constants: FIXED_POINT_TOL and FIXED_POINT_MAX_ITER per fixed point,
ASYMPTOTE_TOL and ASYMPTOTE_MAX_LEVELS for the asymptote.  A fixed
point pumps plain float weights (:func:`~qrepeater.ops.purify_weights`).
Fixed points and the asymptote read states only, never a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

from .bell import BellDiagonalState, fidelity, normalise, weights_of
from .channel import LinkParams
from .ops import NoiseParams, purify, purify_weights  # noqa: F401  (bench/tests reads it)
from .protocol import (
    Ladder,
    Level,
    ProtocolConfig,
    nesting_depth,
    pumping_depth,
)
from .timing import Duration

FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 10_000
ASYMPTOTE_TOL = 1e-6
ASYMPTOTE_MAX_LEVELS = 40

#: Below this singlet weight a pair is separable-grade and pumping it is
#: pointless; the asymptote search reports failure instead of a value.
USEFUL_FIDELITY_FLOOR = 0.5


@dataclass(frozen=True)
class FixedPointResult:
    value: float
    iterations: int
    converged: bool


#: A failed sweep point's result columns; its ``error`` holds the message.
_NO_RESULT = dict.fromkeys(("fidelity", "f_fp", "f_inf", "expected_time_s"))


def _pumped_fixed_point(level: Level, noise: NoiseParams) -> FixedPointResult:
    """Pump the level's stored B pair with its C fodder until two
    successive rounds each move the fidelity by at most FIXED_POINT_TOL."""
    weights, fodder = weights_of(level.b), weights_of(level.c)
    value = weights[0]
    small_steps = 0
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        raw, _ = purify_weights(weights, fodder, noise)
        if raw is None:
            return FixedPointResult(value, iteration, False)
        weights = normalise(raw)
        new_value = weights[0]
        delta = abs(new_value - value)
        value = new_value
        # The pumping map alternates error types between rounds, so one
        # small step can be a zero-gain parity step; require two in a row.
        small_steps = small_steps + 1 if delta <= FIXED_POINT_TOL else 0
        if small_steps >= 2:
            return FixedPointResult(value, iteration, True)
    return FixedPointResult(value, FIXED_POINT_MAX_ITER, False)


class _Walk(Ladder):
    """A ladder that also keeps the fixed point at each depth, computed on
    first read (depth 0 is the elementary fidelity), and the asymptote found
    from them; a failed search is not kept, so every read raises again."""

    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        self._fixed_points: dict[int, FixedPointResult] = {}

    def fixed_point(self, depth: int) -> FixedPointResult:
        if depth not in self._fixed_points:
            pair = self.pair(depth)
            self._fixed_points[depth] = (
                _pumped_fixed_point(self.levels[depth - 1], self.config.noise)
                if depth
                else FixedPointResult(fidelity(pair), 0, True)
            )
        return self._fixed_points[depth]

    def asymptote(self) -> FixedPointResult:
        return self._asymptote

    @functools.cached_property
    def _asymptote(self) -> FixedPointResult:
        previous = None
        for depth in range(1, ASYMPTOTE_MAX_LEVELS + 1):
            fp = self.fixed_point(depth)
            if fp.value < USEFUL_FIDELITY_FLOOR:
                return FixedPointResult(fp.value, depth, False)
            if previous is not None and abs(fp.value - previous) <= ASYMPTOTE_TOL:
                return FixedPointResult(fp.value, depth, True)
            previous = fp.value
        return FixedPointResult(previous, ASYMPTOTE_MAX_LEVELS, False)


#: The last config's walk, kept so that successive calls on one config (as
#: ``fixed-point`` makes) share it.
_walk = functools.lru_cache(maxsize=1)(_Walk)


def fixed_point_at_distance(config: ProtocolConfig, span: int) -> FixedPointResult:
    """Limiting fidelity of pumping without bound at the top nesting
    level for the given span; the levels below run with the configured m
    (a per-level tuple shorter than the span's depth reuses its last
    entry).  At span 1 nothing is pumped and it is the elementary fidelity.

    F_FP is the limit of unbounded pumping, not an upper bound on finite
    pumping: the fodder C is worse than the stored pair, so in noisy
    regimes the fidelity after m rounds can exceed F_FP.  At p = eta =
    0.97 and span 7 (default link), the stored B starts at 0.69845, three
    pumps give 0.69411, and further rounds lower it monotonically to the
    fixed point 0.69113.
    """
    return _walk(config).fixed_point(nesting_depth(span))


def asymptotic_fidelity(config: ProtocolConfig) -> FixedPointResult:
    """Distance-independent limit of the fixed-point fidelity, found by
    growing the nesting depth until successive fixed points differ by at
    most ASYMPTOTE_TOL; no level beyond ASYMPTOTE_MAX_LEVELS is built.  A
    fixed point falling below 0.5 means entanglement is lost and is
    reported as not converged."""
    return _walk(config).asymptote()


def prefix_fixed_points(
    config: ProtocolConfig,
) -> list[tuple[BellDiagonalState, Duration, FixedPointResult]]:
    """The purified pair, its time and the fixed point at every depth up
    to the config's, span 1 first, read from one ladder."""
    walk = _walk(config)
    return [(walk.pair(d), walk.time(d), walk.fixed_point(d)) for d in range(config.depth + 1)]


def apply_overrides(config: ProtocolConfig, **overrides) -> ProtocolConfig:
    """New ProtocolConfig with the named physical parameters replaced; a
    per-level m is stretched or cut to the new target span's depth by the
    rule of :func:`pumping_depth`.  The virtual field ``p_eta`` sets the
    gate and measurement reliabilities jointly."""
    if "p_eta" in overrides:
        value = overrides.pop("p_eta")
        overrides.setdefault("p", value)
        overrides.setdefault("eta", value)
    link_kw = {
        f.name: overrides.pop(f.name) for f in fields(LinkParams) if f.name in overrides
    }
    noise_kw = {
        f.name: overrides.pop(f.name) for f in fields(NoiseParams) if f.name in overrides
    }
    target = overrides.pop("target_span", config.target_span)
    m = overrides.pop("m", config.m)
    f0 = overrides.pop("f0", config.f0)
    if overrides:
        raise ValueError(f"unknown config fields: {sorted(overrides)}")
    link = replace(config.link, **link_kw)
    noise = replace(config.noise, **noise_kw)
    if not isinstance(m, int):
        m = tuple(pumping_depth(m, i) for i in range(nesting_depth(target)))
    return ProtocolConfig(link=link, noise=noise, m=m, target_span=target, f0=f0)


def sweep(base_config: ProtocolConfig, axes: Mapping[str, Sequence]) -> tuple[dict, ...]:
    """Evaluate the protocol, its fixed point and its asymptote on every
    point of the cartesian grid; one row per point, in lexicographic
    order, holding the point's axis values and its results.  Every point
    is resolved first and grouped by its ladder; then one walk per group
    is built, read by that group's points and dropped before the next, so
    each level, its fixed point and the asymptote are built once and one
    walk is alive at a time.  A point that fails records the message in
    its row's ``error`` field and the sweep continues."""
    if not axes or any(len(values) == 0 for values in axes.values()):
        raise ValueError("sweep needs at least one axis with at least one value")
    rows = tuple(dict(zip(axes, point)) for point in itertools.product(*axes.values()))
    # The ladder does not depend on the target span (a per-level m is
    # already stretched to it), so the other four fields key its walk.
    groups: dict[tuple, list[tuple[dict, ProtocolConfig]]] = {}
    for row in rows:
        try:
            cfg = apply_overrides(base_config, **row)
        except ValueError as exc:
            row.update(_NO_RESULT, error=str(exc))
            continue
        groups.setdefault((cfg.link, cfg.noise, cfg.m, cfg.f0), []).append((row, cfg))
    for points in groups.values():
        walk = _Walk(points[0][1])
        for row, cfg in points:
            try:
                time, fp = walk.time(cfg.depth), walk.fixed_point(cfg.depth)
                row.update(
                    fidelity=fidelity(walk.pair(cfg.depth)), f_fp=fp.value,
                    f_inf=walk.asymptote().value, expected_time_s=time.mean, error="",
                )
            except ValueError as exc:
                row.update(_NO_RESULT, error=str(exc))
    return rows
