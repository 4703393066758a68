"""Fixed-point and asymptotic fidelity analysis, plus parameter sweeps.

Pumping a stored pair forever does not push its fidelity to one when
gates and measurements err: the gain per round shrinks until it balances
the noise injected by the round itself, and the fidelity stalls at a
fixed point that depends on the distance.  Across nesting levels those
fixed points approach a distance-independent asymptote.  Both limits are
computed here by direct iteration of the same maps the protocol uses.
"""

from __future__ import annotations

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
    top = next(itertools.islice(ladder(config), depth - 1, None))
    return _pumped_fixed_point(top, config.noise, tol, max_iter)


def asymptotic_fidelity(
    config: ProtocolConfig,
    tol: float = ASYMPTOTE_TOL,
    max_levels: int = ASYMPTOTE_MAX_LEVELS,
) -> FixedPointResult:
    """Distance-independent limit of the fixed-point fidelity, found by
    growing the nesting depth until successive fixed points differ by at
    most ``tol``.  A fixed point falling below 0.5 means entanglement is
    lost and is reported as not converged."""
    previous = None
    # zip stops on the range first, so no level beyond max_levels is built.
    for depth, level in zip(range(1, max_levels + 1), ladder(config)):
        fp = _pumped_fixed_point(level, config.noise)
        if fp.value < USEFUL_FIDELITY_FLOOR:
            return FixedPointResult(fp.value, depth, False, tol)
        if previous is not None and abs(fp.value - previous) <= tol:
            return FixedPointResult(fp.value, depth, True, tol)
        previous = fp.value
    return FixedPointResult(previous, max_levels, False, tol)


def prefix_fixed_points(config: ProtocolConfig) -> list[tuple[PairRecord, FixedPointResult]]:
    """The purified pair and the fixed point at every schedule prefix
    span, span 1 first, read from one ladder."""
    levels = itertools.islice(ladder(config), len(config.schedule))
    return [(elementary_pair(config), fixed_point_at_distance(config, 1))] + [
        (level.a, _pumped_fixed_point(level, config.noise)) for level in levels
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
    point of the cartesian grid.  Per-point failures are recorded in the
    row's ``error`` field and the sweep continues."""
    if not axes or any(len(values) == 0 for values in axes.values()):
        raise ValueError("sweep needs at least one axis with at least one value")
    names = list(axes.keys())
    grids = [tuple(axes[name]) for name in names]
    rows = []
    # The asymptote does not depend on the target span; points that share
    # everything else share it, a raised error included.
    asymptotes: dict[tuple, FixedPointResult | ValueError | ProtocolError] = {}
    for point in itertools.product(*grids):
        coords = dict(zip(names, point))
        row = dict(coords)
        try:
            cfg = apply_overrides(base_config, **coords)
            levels = list(itertools.islice(ladder(cfg), len(cfg.schedule)))
            if levels:
                final, fp = levels[-1].a, _pumped_fixed_point(levels[-1], cfg.noise)
            else:
                final, fp = elementary_pair(cfg), fixed_point_at_distance(cfg, 1)
            key = (cfg.link, cfg.noise, cfg.m, cfg.f0)
            if key not in asymptotes:
                try:
                    asymptotes[key] = asymptotic_fidelity(cfg)
                except (ValueError, ProtocolError) as exc:
                    asymptotes[key] = exc
            asym = asymptotes[key]
            if isinstance(asym, Exception):
                raise asym
            row.update(
                fidelity=fidelity(final.state),
                f_fp=fp.value,
                f_inf=asym.value,
                expected_time_s=final.expected_time,
                error="",
            )
        except (ValueError, ProtocolError) as exc:
            row.update(
                fidelity=None, f_fp=None, f_inf=None, expected_time_s=None,
                error=str(exc),
            )
        rows.append(row)
    return SweepTable(
        axes=tuple((name, tuple(axes[name])) for name in names),
        rows=tuple(rows),
    )
