"""Fixed points, the distance asymptote and the tables the CLI prints.

Pumping a stored pair forever does not push its fidelity to one when
gates and measurements err: the gain per round shrinks until it balances
the noise injected by the round itself, and the fidelity stalls at a
fixed point that depends on the distance.  Across nesting levels those
fixed points approach a distance-independent asymptote.  Both limits are
computed by direct iteration of the same maps the protocol uses, on plain
float weights (:func:`~qrepeater.ops.purify_weights`), and stop by the
module constants FIXED_POINT_TOL and FIXED_POINT_MAX_ITER per fixed
point, ASYMPTOTE_TOL and ASYMPTOTE_MAX_LEVELS for the asymptote; they
read states only, never a time.  Every number the CLI computes, from the
link's closed forms to the asymptote, is one of the :data:`COLUMNS` of a
:func:`table`: per grid point, the columns it names, read from a
:class:`~qrepeater.protocol.Ladder` that also keeps each depth's fixed point.
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping, NamedTuple, Sequence

from .bell import fidelity, normalise
from .channel import (
    LinkParams,
    channel_efficiency,
    entangle_success_prob,
    expected_link_time,
    initial_fidelity,
)
from .ops import NoiseParams, purify, purify_weights  # noqa: F401  (bench/tests reads it)
from .protocol import (
    Ladder,
    Level,
    ProtocolConfig,
    nesting_depth,
    pumping_depth,
)

FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 10_000
ASYMPTOTE_TOL = 1e-6
ASYMPTOTE_MAX_LEVELS = 40

#: Below this singlet weight a pair is separable-grade and pumping it is
#: pointless; the asymptote search reports failure instead of a value.
USEFUL_FIDELITY_FLOOR = 0.5


class FixedPointResult(NamedTuple):
    value: float
    iterations: int
    converged: bool


def _pumped_fixed_point(level: Level, noise: NoiseParams) -> FixedPointResult:
    """Pump the level's stored B pair with its C fodder until two
    successive rounds each move the fidelity by at most FIXED_POINT_TOL."""
    weights, fodder = level.b, level.c
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


def _link_form(closed_form):
    """The column ``closed_form(p_em, eps)`` of a point's link; it builds no level."""
    return lambda walk, _: closed_form(walk.config.link.p_em, channel_efficiency(walk.config.link))


#: A table's result columns, each read from a point's walk at its depth, in
#: the order a row reads them; a row reports the first error it meets.
COLUMNS = {
    "efficiency": lambda walk, depth: channel_efficiency(walk.config.link),
    "success_prob": _link_form(entangle_success_prob),
    "initial_fidelity": _link_form(initial_fidelity),
    "expected_link_time_s": lambda walk, depth: expected_link_time(walk.config.link),
    "expected_time_s": lambda walk, depth: walk.time(depth).mean,
    "time_in_t0_units": lambda walk, depth: (
        walk.time(depth).mean / t if (t := expected_link_time(walk.config.link)) else None
    ),
    "f_fp": lambda walk, depth: walk.fixed_point(depth).value,
    "fidelity": lambda walk, depth: fidelity(walk.pair(depth)),
    "f_inf": lambda walk, depth: walk.asymptote().value,
}


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
    return _Walk(config).fixed_point(nesting_depth(span))


def asymptotic_fidelity(config: ProtocolConfig) -> FixedPointResult:
    """Distance-independent limit of the fixed-point fidelity, found by
    growing the nesting depth until successive fixed points differ by at
    most ASYMPTOTE_TOL; no level beyond ASYMPTOTE_MAX_LEVELS is built.  A
    fixed point falling below 0.5 means entanglement is lost and is
    reported as not converged."""
    return _Walk(config).asymptote()


def apply_overrides(config: ProtocolConfig, **overrides) -> ProtocolConfig:
    """New ProtocolConfig with the named physical parameters replaced; a
    per-level m is stretched or cut to the new target span's depth by the
    rule of :func:`pumping_depth`.  The virtual field ``p_eta`` sets the
    gate and measurement reliabilities jointly."""
    if "p_eta" in overrides:
        value = overrides.pop("p_eta")
        overrides.setdefault("p", value)
        overrides.setdefault("eta", value)
    link_kw = {name: overrides.pop(name) for name in LinkParams._fields if name in overrides}
    noise_kw = {name: overrides.pop(name) for name in NoiseParams._fields if name in overrides}
    target = overrides.pop("target_span", config.target_span)
    m = overrides.pop("m", config.m)
    f0 = overrides.pop("f0", config.f0)
    if overrides:
        raise ValueError(f"unknown config fields: {sorted(overrides)}")
    # A record no override touches is kept, with the values it has cached.
    link = config.link._replace(**link_kw) if link_kw else config.link
    noise = config.noise._replace(**noise_kw) if noise_kw else config.noise
    if not isinstance(m, bool) and hasattr(m, "__iter__"):  # per level, by ProtocolConfig's test
        m = tuple(pumping_depth(m, i) for i in range(nesting_depth(target)))
    return ProtocolConfig(link=link, noise=noise, m=m, target_span=target, f0=f0)


def table(
    base_config: ProtocolConfig, axes: Mapping[str, Sequence], columns: Sequence[str]
) -> tuple[dict, ...]:
    """One row per point of the cartesian grid, in lexicographic order: its
    axis values, the named ``columns`` (each in :data:`COLUMNS` or ``error``;
    another name raises ValueError) and its ``error`` ("" if none; else the
    columns are None).  Points are grouped by ladder; one walk per group is
    built, read only as far as the columns need and dropped before the next
    is built."""
    if not axes or any(len(values) == 0 for values in axes.values()):
        raise ValueError("sweep needs at least one axis with at least one value")
    results = [name for name in columns if name != "error"]
    if unknown := [name for name in results if name not in COLUMNS]:
        raise ValueError(f"unknown columns: {unknown}")
    rows = tuple(dict(zip(axes, point)) for point in itertools.product(*axes.values()))
    # The ladder does not depend on the target span, and a per-level m
    # reuses its last entry for every deeper level, so m with trailing
    # repeats dropped and the other three fields key its walk.
    groups: dict[tuple, list[tuple[dict, ProtocolConfig]]] = {}
    for row in rows:
        try:
            cfg = apply_overrides(base_config, **row)
        except ValueError as exc:
            row.update(dict.fromkeys(results), error=str(exc))
            continue
        m = cfg.m
        while not isinstance(m, int) and len(m) > 1 and m[-1] == m[-2]:
            m = m[:-1]
        groups.setdefault((cfg.link, cfg.noise, m, cfg.f0), []).append((row, cfg))
    for points in groups.values():
        walk = _Walk(points[0][1])
        for row, cfg in points:
            try:
                values = {n: read(walk, cfg.depth) for n, read in COLUMNS.items() if n in results}
                row.update({name: values[name] for name in results}, error="")
            except ValueError as exc:
                row.update(dict.fromkeys(results), error=str(exc))
    return rows


def sweep(base_config: ProtocolConfig, axes: Mapping[str, Sequence]) -> tuple[dict, ...]:
    """The :func:`table` of the protocol's fidelity, its fixed point, the
    asymptote and the expected time."""
    return table(base_config, axes, ("fidelity", "f_fp", "f_inf", "expected_time_s"))
