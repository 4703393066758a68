"""Command-line front end.

Subcommands: ``link`` (closed-form link report, optionally with the
photon-mode Monte Carlo check), ``simulate`` (fidelity and time versus
distance), ``fixed-point`` (pumping fixed points and the distance
asymptote), ``sweep`` (grids over any parameter) and ``headline`` (the
1000 km scenario).  Every command emits CSV with the fully resolved
configuration embedded as ``#`` header comments, so outputs are
reproducible byte for byte from the file alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace

from .analysis import asymptotic_fidelity, fixed_point_at_distance, prefix_fixed_points, sweep
from .bell import fidelity
from .channel import (
    channel_efficiency,
    entangle_success_prob,
    expected_link_time,
    initial_fidelity,
    photon_mode_oracle,
)
from .config import FIELD_TYPES, RunConfig, format_resolved, load_config, parse_config_file
from .protocol import round_span_up, run_protocol

#: Singlet fidelity above which a Werner-type pair violates the CHSH
#: inequality: (1 + 3/sqrt(2))/4 rounded to the conventional 0.78.
BELL_VIOLATION_FIDELITY = 0.78

#: The physical parameters: every run parameter but the seed and the trial
#: count.  Each has its own flag and, with ``p_eta`` (p and eta set
#: together), is a sweep axis.
_PHYSICAL_TYPES = {k: t for k, t in FIELD_TYPES.items() if k not in ("seed", "trials")}
_AXIS_TYPES = {**_PHYSICAL_TYPES, "p_eta": float}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_csv(config: RunConfig, command: str, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# qrepeater {command}\n")
    for line in format_resolved(config).splitlines():
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _sweep_csv(config: RunConfig, command: str, axes: dict, columns: list[str]) -> str:
    """The sweep table over ``axes``: the axis values, then ``columns``."""
    header = [*axes, *columns]
    rows = [[row[key] for key in header] for row in sweep(config.protocol_config(), axes)]
    return _render_csv(config, command, header, rows)


def cmd_link(config: RunConfig, oracle: bool = False) -> str:
    """Closed-form link report: efficiency, success probability, initial
    fidelity and expected time; ``oracle`` appends Monte Carlo estimates
    with standard errors."""
    link = config.protocol_config().link
    eps = channel_efficiency(link)
    prob = entangle_success_prob(link.p_em, eps)
    f0 = initial_fidelity(link.p_em, eps)
    t_link = expected_link_time(link)
    header = ["efficiency", "success_prob", "initial_fidelity", "expected_link_time_s"]
    row = [eps, prob, f0, t_link]
    if oracle:
        est = photon_mode_oracle(link.p_em, eps, config.trials, config.seed)
        header += ["mc_success_prob", "mc_success_se", "mc_fidelity", "mc_fidelity_se"]
        row += [est.p_hat, est.p_se, est.f0_hat, est.f0_se]
    return _render_csv(config, "link", header, [row])


def cmd_simulate(config: RunConfig) -> str:
    """Fidelity, fixed point and expected time at every prefix span up to
    the target; ``time_in_t0_units`` is empty for zero-time links."""
    pcfg = config.protocol_config()
    # The ladder first, so a P = 0 link fails with its message, as in every command.
    prefixes = prefix_fixed_points(pcfg)
    t_link = expected_link_time(pcfg.link)
    rows = []
    for depth, (pair, time, fp) in enumerate(prefixes):
        span, t, fid = 2 ** (depth + 1) - 1, time.mean, fidelity(pair)
        units = t / t_link if t_link else None
        rows.append([span, span * config.l0_km, fid, fp.value, t, units])
    header = [
        "span_segments", "distance_km", "fidelity", "f_fp", "expected_time_s", "time_in_t0_units"
    ]
    return _render_csv(config, "simulate", header, rows)


def cmd_fixed_point(config: RunConfig, axes: dict | None = None) -> str:
    """Fixed point F_FP per span and the distance asymptote; with axes, a
    grid of (F_FP at target span, F_inf) per point."""
    if axes:
        return _sweep_csv(config, "fixed-point", axes, ["f_fp", "f_inf", "error"])
    pcfg = config.protocol_config()
    asym = asymptotic_fidelity(pcfg)
    rows = [
        [span, span * config.l0_km, fixed_point_at_distance(pcfg, span).value, asym.value]
        for span in (2 ** (d + 1) - 1 for d in range(pcfg.depth + 1))
    ]
    header = ["span_segments", "distance_km", "f_fp", "f_inf"]
    return _render_csv(config, "fixed-point", header, rows)


def cmd_sweep(config: RunConfig, axes: dict) -> str:
    """Protocol fidelity, fixed point, asymptote and expected time over a
    parameter grid."""
    if not axes:
        raise ValueError("sweep requires at least one --axis NAME=V1,V2,...")
    columns = ["fidelity", "f_fp", "f_inf", "expected_time_s", "error"]
    return _sweep_csv(config, "sweep", axes, columns)


def cmd_headline(config: RunConfig, distance_km: float = 1000.0) -> str:
    """The long-haul scenario: span rounded up to the nearest schedulable
    size, final fidelity, expected time and the CHSH-violation verdict."""
    if not 0.0 < distance_km < math.inf:
        raise ValueError(f"distance_km must be finite and > 0, got {distance_km!r}")
    if (ratio := distance_km / config.l0_km) == math.inf:
        raise ValueError(f"distance_km / l0_km overflows a float: {distance_km} / {config.l0_km}")
    span = round_span_up(math.ceil(ratio))
    pcfg = replace(config, target_span=span).protocol_config()
    eps = channel_efficiency(pcfg.link)
    result = run_protocol(pcfg)
    fid = fidelity(result.final)
    columns = {
        "requested_distance_km": distance_km,
        "span_segments": span,
        "distance_km": span * config.l0_km,
        "efficiency": eps,
        "initial_fidelity": initial_fidelity(pcfg.link.p_em, eps),
        "fidelity": fid,
        "expected_time_s": result.total_expected_time,
        "bell_violation_threshold": BELL_VIOLATION_FIDELITY,
        "violates_bell": fid > BELL_VIOLATION_FIDELITY,
    }
    return _render_csv(config, "headline", list(columns), [list(columns.values())])


#: Command-level defaults for the headline scenario: 8% emission, a
#: single pumping step, and a declared efficiency of about 0.32.
HEADLINE_DEFAULTS = {"p_em": 0.08, "m": 1, "eps_local": 0.5}


def _parse_axes(specs: list[str] | None) -> dict:
    axes: dict = {}
    for spec in specs or []:
        if "=" not in spec:
            raise ValueError(f"--axis expects NAME=V1,V2,..., got {spec!r}")
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in _AXIS_TYPES:
            raise ValueError(f"unknown axis {name!r}")
        if name in axes:
            raise ValueError(f"duplicate axis {name!r}")
        caster = _AXIS_TYPES[name]
        try:
            axes[name] = [caster(v.strip()) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse axis {name!r} values {values!r}") from exc
        if not axes[name]:
            raise ValueError(f"axis {name!r} has no values")
    return axes


def _flag_parser(*args, **kwargs) -> argparse.ArgumentParser:
    """A help-less parser with one flag, for a subparser's ``parents``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*args, **kwargs)
    return parser


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes after its own."""
    parser = _flag_parser("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    parser.add_argument("--seed", type=int, help="random seed (default 12345)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trial count")
    parser.add_argument(
        "--print-config", action="store_true", help="echo the resolved config and exit"
    )
    for key, caster in _PHYSICAL_TYPES.items():
        parser.add_argument(f"--{key.replace('_', '-')}", type=caster, dest=key)
    return parser


def _resolve(args: argparse.Namespace, defaults: dict | None = None) -> RunConfig:
    """Precedence: built-in defaults < command defaults < config file < flags."""
    merged = dict(defaults or {})
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return load_config(None, merged)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepeater",
        description="Two-qubit-per-node quantum repeater simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One parser per flag set, shared by reference; a subcommand's own flag comes first.
    common = _common_flags()
    oracle = _flag_parser(
        "--oracle", action="store_true", help="append photon-mode Monte Carlo estimates"
    )
    axis = _flag_parser("--axis", action="append", metavar="NAME=V1,V2,...")
    distance = _flag_parser("--distance-km", type=float, default=1000.0)
    sub.add_parser("link", help="elementary-link closed forms", parents=[oracle, common])
    sub.add_parser("simulate", help="fidelity and time vs distance", parents=[common])
    sub.add_parser(
        "fixed-point", help="pumping fixed points and asymptote", parents=[axis, common]
    )
    sub.add_parser("sweep", help="parameter grids", parents=[axis, common])
    sub.add_parser("headline", help="the 1000 km scenario", parents=[distance, common])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        defaults = HEADLINE_DEFAULTS if args.command == "headline" else None
        config = _resolve(args, defaults)
        if args.print_config:
            sys.stdout.write(format_resolved(config) + "\n")
            return 0
        if args.command == "link":
            text = cmd_link(config, oracle=args.oracle)
        elif args.command == "simulate":
            text = cmd_simulate(config)
        elif args.command == "fixed-point":
            text = cmd_fixed_point(config, _parse_axes(args.axis))
        elif args.command == "sweep":
            text = cmd_sweep(config, _parse_axes(args.axis))
        else:
            text = cmd_headline(config, distance_km=args.distance_km)
        if args.out:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
