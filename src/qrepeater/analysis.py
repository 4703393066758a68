"""Fixed-point and asymptotic fidelity analysis, plus parameter sweeps.

Pumping a stored pair forever does not push its fidelity to one when
gates and measurements err: the gain per round shrinks until it balances
the noise injected by the round itself, and the fidelity stalls at a
fixed point that depends on the distance.  Across nesting levels those
fixed points approach a distance-independent asymptote.  Both limits are
computed here by direct iteration of the same maps the protocol uses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

from .bell import fidelity
from .channel import LinkParams
from .ops import NoiseParams, purify
from .protocol import (
    Level,
    PairRecord,
    ProtocolConfig,
    ProtocolError,
    default_schedule,
    elementary_pair,
    ladder,
    pumping_depth,
)

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
    tolerance: float


@dataclass(frozen=True)
class SweepTable:
    """Cartesian-product sweep results: ``axes`` names the grids in
    order, ``rows`` holds one record per grid point (lexicographic)."""

    axes: tuple[tuple[str, tuple], ...]
    rows: tuple[dict, ...]


def _pumped_fixed_point(
    level: Level,
    noise: NoiseParams,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
) -> FixedPointResult:
    """Pump the level's stored B pair with its C fodder until two
    successive rounds each move the fidelity by at most ``tol``."""
    state = level.b.state
    value = fidelity(state)
    small_steps = 0
    for iteration in range(1, max_iter + 1):
        outcome = purify(state, level.c.state, noise)
        if not outcome.purifiable:
            return FixedPointResult(value, iteration, False, tol)
        state = outcome.state
        new_value = fidelity(state)
        delta = abs(new_value - value)
        value = new_value
        # The pumping map alternates error types between rounds, so one
        # small step can be a zero-gain parity step; require two in a row.
        small_steps = small_steps + 1 if delta <= tol else 0
        if small_steps >= 2:
            return FixedPointResult(value, iteration, True, tol)
    return FixedPointResult(value, max_iter, False, tol)


class _Walk:
    """One ladder, read level by level: each level and its fixed point are
    built on first read and kept, and so is an error raised building a
    level, which every deeper read raises again."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self._ladder = ladder(config)
        self._levels: list[Level] = []
        self._error: ValueError | ProtocolError | None = None
        self._fixed_points: dict[tuple, FixedPointResult] = {}

    def level(self, index: int) -> Level:
        while len(self._levels) <= index:
            if self._error is not None:
                raise self._error.with_traceback(None)
            try:
                self._levels.append(next(self._ladder))
            except (ValueError, ProtocolError) as exc:
                self._error = exc
                raise
            except StopIteration:
                # Any other exception closed the generator; walk it again.
                self._ladder = itertools.islice(ladder(self.config), len(self._levels), None)
        return self._levels[index]

    def fixed_point(
        self, index: int, tol: float = FIXED_POINT_TOL, max_iter: int = FIXED_POINT_MAX_ITER
    ) -> FixedPointResult:
        key = (index, tol, max_iter)
        if key not in self._fixed_points:
            level = self.level(index)
            self._fixed_points[key] = _pumped_fixed_point(level, self.config.noise, tol, max_iter)
        return self._fixed_points[key]

    def asymptote(self, tol: float, max_levels: int) -> FixedPointResult:
        previous = None
        for depth in range(1, max_levels + 1):
            fp = self.fixed_point(depth - 1)
            if fp.value < USEFUL_FIDELITY_FLOOR:
                return FixedPointResult(fp.value, depth, False, tol)
            if previous is not None and abs(fp.value - previous) <= tol:
                return FixedPointResult(fp.value, depth, True, tol)
            previous = fp.value
        return FixedPointResult(previous, max_levels, False, tol)


#: The last config's walk, kept so that successive calls on one config (as
#: ``fixed-point`` makes) share it.
_walk = functools.lru_cache(maxsize=1)(_Walk)


def fixed_point_at_distance(
    config: ProtocolConfig,
    span: int,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
) -> FixedPointResult:
    """Limiting fidelity of pumping without bound at the top nesting
    level for the given span; the levels below run with the configured m
    (a per-level tuple shorter than the span's depth reuses its last
    entry).

    F_FP is the limit of unbounded pumping, not an upper bound on finite
    pumping: the fodder C is worse than the stored pair, so in noisy
    regimes the fidelity after m rounds can exceed F_FP.  At p = eta =
    0.97 and span 7 (default link), the stored B starts at 0.69845, three
    pumps give 0.69411, and further rounds lower it monotonically to the
    fixed point 0.69113.
    """
    depth = len(default_schedule(span))
    if depth == 0:
        return FixedPointResult(fidelity(elementary_pair(config).state), 0, True, tol)
    return _walk(config).fixed_point(depth - 1, tol, max_iter)


def asymptotic_fidelity(
    config: ProtocolConfig,
    tol: float = ASYMPTOTE_TOL,
    max_levels: int = ASYMPTOTE_MAX_LEVELS,
) -> FixedPointResult:
    """Distance-independent limit of the fixed-point fidelity, found by
    growing the nesting depth until successive fixed points differ by at
    most ``tol``; no level beyond ``max_levels`` is built.  A fixed point
    falling below 0.5 means entanglement is lost and is reported as not
    converged."""
    return _walk(config).asymptote(tol, max_levels)


def prefix_fixed_points(config: ProtocolConfig) -> list[tuple[PairRecord, FixedPointResult]]:
    """The purified pair and the fixed point at every schedule prefix
    span, span 1 first, read from one ladder."""
    walk = _walk(config)
    return [(elementary_pair(config), fixed_point_at_distance(config, 1))] + [
        (walk.level(i).a, walk.fixed_point(i)) for i in range(len(config.schedule))
    ]


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
        m = tuple(pumping_depth(m, i) for i in range(len(default_schedule(target))))
    return ProtocolConfig(link=link, noise=noise, m=m, target_span=target, f0=f0)


def sweep(base_config: ProtocolConfig, axes: Mapping[str, Sequence]) -> SweepTable:
    """Evaluate the protocol, its fixed point and its asymptote on every
    point of the cartesian grid.  Points that differ only in target span
    share one ladder walk, so each level, its fixed point and the
    asymptote are built once; a walk is dropped after the last point that
    reads it.  Per-point failures are recorded in the row's ``error``
    field and the sweep continues."""
    if not axes or any(len(values) == 0 for values in axes.values()):
        raise ValueError("sweep needs at least one axis with at least one value")
    names = list(axes.keys())
    grids = [tuple(axes[name]) for name in names]
    rows = [dict(zip(names, point)) for point in itertools.product(*grids)]
    configs = []
    for row in rows:
        try:
            configs.append(apply_overrides(base_config, **row))
        except (ValueError, ProtocolError) as exc:
            configs.append(exc)
    # The ladder does not depend on the target span (a per-level m is
    # already stretched to it), so the other four fields key its walk.
    keys = [
        (cfg.link, cfg.noise, cfg.m, cfg.f0) if isinstance(cfg, ProtocolConfig) else None
        for cfg in configs
    ]
    last_use = {key: i for i, key in enumerate(keys)}
    walks: dict[tuple, _Walk] = {}
    for i, (row, cfg, key) in enumerate(zip(rows, configs, keys)):
        try:
            if key is None:
                raise cfg
            walk = walks[key] = walks.get(key) or _Walk(cfg)
            depth = len(cfg.schedule)
            if depth:
                final, fp = walk.level(depth - 1).a, walk.fixed_point(depth - 1)
            else:
                final, fp = elementary_pair(cfg), fixed_point_at_distance(cfg, 1)
            asym = walk.asymptote(ASYMPTOTE_TOL, ASYMPTOTE_MAX_LEVELS)
            row.update(
                fidelity=fidelity(final.state), f_fp=fp.value, f_inf=asym.value,
                expected_time_s=final.expected_time, error="",
            )
        except (ValueError, ProtocolError) as exc:
            row.update(
                fidelity=None, f_fp=None, f_inf=None, expected_time_s=None, error=str(exc)
            )
        if last_use[key] == i:
            walks.pop(key, None)
    return SweepTable(
        axes=tuple((name, tuple(axes[name])) for name in names),
        rows=tuple(rows),
    )
