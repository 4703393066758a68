"""Command-line front end.

Each subcommand is one entry of :data:`COMMANDS`, which the parser, the
command defaults and :func:`main` read.  Each computes its numbers in one
:func:`~qrepeater.analysis.table` call (only ``link --oracle`` samples on
its own) and emits CSV with the fully resolved configuration embedded as
``#`` header comments, so outputs are reproducible byte for byte from the
file alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from .analysis import table
from .channel import photon_mode_oracle
from .config import DEFAULT_SEED
from .config import FIELD_TYPES, RunConfig, format_resolved, load_config, parse_config_file
from .protocol import round_span_up

#: Singlet fidelity above which a Werner-type pair violates the CHSH
#: inequality: (1 + 3/sqrt(2))/4 rounded to the conventional 0.78.
BELL_VIOLATION_FIDELITY = 0.78

#: The physical parameters: every run parameter but the seed and the trial
#: count.  Each has its own flag and, with ``p_eta`` (p and eta set
#: together), is a sweep axis.
_PHYSICAL_TYPES = {k: t for k, t in FIELD_TYPES.items() if k not in ("seed", "trials")}
_AXIS_TYPES = {**_PHYSICAL_TYPES, "p_eta": float}


def _render_csv(config: RunConfig, command: str, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# qrepeater {command}\n")
    for line in format_resolved(config).splitlines():
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # csv writes None as an empty field and every other value as its str.
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _sweep_csv(config: RunConfig, command: str, axes: dict, columns: list[str]) -> str:
    """The sweep table over ``axes``: the axis values, then ``columns``."""
    header = [*axes, *columns]
    rows = [[row[key] for key in header] for row in table(config.protocol_config(), axes, columns)]
    return _render_csv(config, command, header, rows)


def _span_rows(config: RunConfig, spans: list[int], columns: list[str]) -> list[list]:
    """The span, its distance and ``columns`` at each of ``spans``; the
    first span that fails raises its error."""
    rows = table(config.protocol_config(), {"target_span": spans}, columns)
    if error := next((row["error"] for row in rows if row["error"]), None):
        raise ValueError(error)
    return [[s := row["target_span"], s * config.l0_km, *map(row.get, columns)] for row in rows]


def _span_csv(config: RunConfig, command: str, columns: list[str]) -> str:
    """The table of ``columns`` at every prefix span 1, 3, ..., target."""
    spans = [2 ** (d + 1) - 1 for d in range(config.target_span.bit_length())]
    header = ["span_segments", "distance_km", *columns]
    return _render_csv(config, command, header, _span_rows(config, spans, columns))


def cmd_link(config: RunConfig, oracle: bool = False) -> str:
    """The link closed forms as one table row: efficiency, success probability,
    initial fidelity and expected time; ``oracle`` appends photon-mode Monte
    Carlo estimates with standard errors."""
    header = ["efficiency", "success_prob", "initial_fidelity", "expected_link_time_s"]
    [[_, _, *row]] = _span_rows(config, [config.target_span], header)
    if oracle:
        est = photon_mode_oracle(config.p_em, row[0], config.trials, config.seed)
        header += ["mc_success_prob", "mc_success_se", "mc_fidelity", "mc_fidelity_se"]
        row += [est.p_hat, est.p_se, est.f0_hat, est.f0_se]
    return _render_csv(config, "link", header, [row])


def cmd_simulate(config: RunConfig) -> str:
    """Fidelity, fixed point and expected time at every prefix span up to
    the target; ``time_in_t0_units`` is empty for zero-time links."""
    columns = ["fidelity", "f_fp", "expected_time_s", "time_in_t0_units"]
    return _span_csv(config, "simulate", columns)


def cmd_fixed_point(config: RunConfig, axes: dict | None = None) -> str:
    """Fixed point F_FP per span and the distance asymptote; with axes, a
    grid of (F_FP at target span, F_inf) per point."""
    if axes:
        return _sweep_csv(config, "fixed-point", axes, ["f_fp", "f_inf", "error"])
    return _span_csv(config, "fixed-point", ["f_fp", "f_inf"])


def cmd_sweep(config: RunConfig, axes: dict) -> str:
    """Protocol fidelity, fixed point, asymptote and expected time over a
    parameter grid."""
    if not axes:
        raise ValueError("sweep requires at least one --axis NAME=V1,V2,...")
    columns = ["fidelity", "f_fp", "f_inf", "expected_time_s", "error"]
    return _sweep_csv(config, "sweep", axes, columns)


def cmd_headline(config: RunConfig, distance_km: float = 1000.0) -> str:
    """The long-haul scenario as one table row at the span rounded up to the
    nearest schedulable size: the link's efficiency and closed-form initial
    fidelity (which a pinned f0 does not change), the final fidelity, the
    expected time and the CHSH-violation verdict."""
    if not 0.0 < distance_km < math.inf:
        raise ValueError(f"distance_km must be finite and > 0, got {distance_km!r}")
    if distance_km / config.l0_km == 0.0:
        raise ValueError(f"distance_km / l0_km underflows to 0: {distance_km} / {config.l0_km}")
    try:  # ceil of an infinite ratio, or a span past the float range, raises
        span = round_span_up(math.ceil(distance_km / config.l0_km))
        if span * config.l0_km == math.inf:
            raise OverflowError
    except OverflowError:
        raise ValueError(f"distance_km / l0_km overflows a float once rounded up to a span:"
                         f" {distance_km} / {config.l0_km}") from None
    columns = ["efficiency", "initial_fidelity", "fidelity", "expected_time_s"]
    [row] = _span_rows(config, [span], columns)
    header = ["requested_distance_km", "span_segments", "distance_km", *columns]
    header += ["bell_violation_threshold", "violates_bell"]
    fid = row[2 + columns.index("fidelity")]
    row = [distance_km, *row, BELL_VIOLATION_FIDELITY, int(fid > BELL_VIOLATION_FIDELITY)]
    return _render_csv(config, "headline", header, [row])


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


def _flag_parser(flags: dict) -> argparse.ArgumentParser:
    """A help-less parser of ``{flag: add_argument keywords}``, for ``parents``."""
    parser = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in flags.items():
        parser.add_argument(flag, **kwargs)
    return parser


def _resolve(args: argparse.Namespace, defaults: dict | None) -> RunConfig:
    """Precedence: built-in defaults < command defaults < config file < flags."""
    merged = dict(defaults or {})
    if args.config:
        merged.update(parse_config_file(args.config))
    merged.update({key: v for key in FIELD_TYPES if (v := getattr(args, key)) is not None})
    return load_config(None, merged)


#: Command-level defaults for the headline scenario: 8% emission, a
#: single pumping step, and a declared efficiency of about 0.32.
HEADLINE_DEFAULTS = {"p_em": 0.08, "m": 1, "eps_local": 0.5}

#: The flags every command takes after its own.
_COMMON_FLAGS = {
    "--config": {"metavar": "PATH", "help": "key=value config file"},
    "--out": {"metavar": "PATH", "help": "write CSV here instead of stdout"},
    "--seed": {"type": int, "help": f"random seed (default {DEFAULT_SEED})"},
    "--trials": {"type": int, "help": "Monte Carlo trial count"},
    "--print-config": {"action": "store_true", "help": "echo the resolved config and exit"},
    **{f"--{key.replace('_', '-')}": {"type": t, "dest": key} for key, t in _PHYSICAL_TYPES.items()},
}

#: The flags that a command takes before the common ones.
_OWN_FLAGS = {
    "--oracle": {"action": "store_true", "help": "append photon-mode Monte Carlo estimates"},
    "--axis": {"action": "append", "metavar": "NAME=V1,V2,..."},
    "--distance-km": {"type": float, "default": 1000.0},
}

#: Every command, in ``--help`` order: its help, its own flag (or None), its
#: defaults and the call that renders its CSV from the config and the args.
COMMANDS = {
    "link": ("elementary-link closed forms", "--oracle", None,
             lambda config, args: cmd_link(config, oracle=args.oracle)),
    "simulate": ("fidelity and time vs distance", None, None,
                 lambda config, args: cmd_simulate(config)),
    "fixed-point": ("pumping fixed points and asymptote", "--axis", None,
                    lambda config, args: cmd_fixed_point(config, _parse_axes(args.axis))),
    "sweep": ("parameter grids", "--axis", None,
              lambda config, args: cmd_sweep(config, _parse_axes(args.axis))),
    "headline": ("the 1000 km scenario", "--distance-km", HEADLINE_DEFAULTS,
                 lambda config, args: cmd_headline(config, distance_km=args.distance_km)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepeater",
        description="Two-qubit-per-node quantum repeater simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One parser per flag set, shared by reference; a command's own flag comes first.
    common = _flag_parser(_COMMON_FLAGS)
    own = {flag: _flag_parser({flag: kwargs}) for flag, kwargs in _OWN_FLAGS.items()}
    for name, (help_text, flag, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[own[flag], common] if flag else [common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, _, defaults, render = COMMANDS[args.command]
    try:
        config = _resolve(args, defaults)
        if args.print_config:
            sys.stdout.write(format_resolved(config) + "\n")
            return 0
        text = render(config, args)
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
