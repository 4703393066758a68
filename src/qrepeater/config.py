"""Run configuration: defaults, file loading and flag overrides.

Config files are flat ``key = value`` text.  Section headers like
``[link]`` are allowed for organisation but carry no namespace; ``#`` and
``;`` start comments.  Unknown keys are rejected.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

from .channel import LinkParams, check_sampler_args
from .ops import NoiseParams
from .protocol import ProtocolConfig

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 10_000


class RunConfig(NamedTuple):
    """Fully resolved parameters for one CLI invocation.

    Physical defaults follow the replication setup: 20 km segments,
    0.2 dB/km fiber, 0.5% gate and measurement errors, phase errors only,
    three pumping steps, and a 15-segment target.
    """

    l0_km: float = 20.0
    attenuation_db_per_km: float = 0.2
    p_em: float = 0.05
    eps_local: float = 1.0
    t0_s: float = 1e-6
    tc_s: float | None = None
    p: float = 0.995
    eta: float = 0.995
    upsilon: float = 0.0
    m: int = 3
    target_span: int = 15
    f0: float | None = None
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS

    def protocol_config(self) -> ProtocolConfig:
        values = self._asdict()
        link, noise = (cls(*map(values.get, cls._fields)) for cls in (LinkParams, NoiseParams))
        return ProtocolConfig(link, noise, self.m, self.target_span, f0=self.f0)


_HINTS = get_type_hints(RunConfig)

#: Every run parameter and its scalar type (``X | None`` reads as X), in
#: field order: the config-file keys and the CLI's per-key flags.
FIELD_TYPES = {name: (get_args(hint) or (hint,))[0] for name, hint in _HINTS.items()}

#: The parameters that may be unset; a config file gives them as ``None``,
#: as --print-config writes them.
NULLABLE = frozenset(name for name, hint in _HINTS.items() if type(None) in get_args(hint))


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat key=value file into typed values (``None`` for an
    unset NULLABLE key).

    Raises ValueError with file/line context for syntax errors, unknown
    keys, duplicates and unparsable values.
    """
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # organisational section header
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].split(";", 1)[0].strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        caster = FIELD_TYPES[key]
        try:
            values[key] = None if value == "None" and key in NULLABLE else caster(value)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: cannot parse {key!r} value {value!r} as {caster.__name__}"
            ) from exc
    return values


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from defaults, an optional file and explicit
    overrides (flags win over file values), then validate."""
    values = parse_config_file(path) if path is not None else {}
    if overrides:
        unknown = set(overrides) - set(FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")
        values.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**values)
    config.protocol_config()  # runs the link, noise and protocol checks
    check_sampler_args(config.seed, config.trials)
    return config


def format_resolved(config: RunConfig) -> str:
    """Stable one-line-per-key rendering used by --print-config and the
    CSV header comments."""
    values = config._asdict()
    return "\n".join(f"{key} = {values[key]!r}" for key in sorted(values))
