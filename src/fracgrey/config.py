"""Flat key=value run-configuration files.

Keys use the conventional algorithm parameter names, so a settings table
reads directly as a config file:

    N = 40
    M = 30
    SRD = 0.2
    mr = 0.2
    c = 1.05
    w = 0.6
    Iter_max = 300

Lines starting with ``#`` and blank lines are ignored.  Which keys apply
depends on the estimator the file is used with.
"""

from .errors import UsageError
from .optim import PsoConfig, SwarmConfig

# The swarms search the two model parameters (a, b).
SEARCH_DIM = 2

SWARM_KEYS = {
    "N": ("n_agents", int),
    "M": ("smp", int),
    "SRD": ("srd", float),
    "CDC": ("cdc", int),
    "SPC": ("spc", "bool"),
    "mr": ("mr", float),
    "c": ("c0", float),
    "w": ("w0", float),
    "Iter_max": ("iter_max", int),
}

PSO_KEYS = {
    "N": ("n_particles", int),
    "c1": ("c1", float),
    "c2": ("c2", float),
    "w": ("w", float),
    "Iter_max": ("iter_max", int),
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def read_key_values(path) -> dict:
    """Read ``key = value`` lines into an ordered dict of raw strings."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _apply(raw: dict, table: dict, path) -> dict:
    fields = {}
    for key, value in raw.items():
        if key not in table:
            raise UsageError(
                f"{path}: unknown config key {key!r}; allowed: {', '.join(table)}"
            )
        name, caster = table[key]
        try:
            fields[name] = _parse_bool(value) if caster == "bool" else caster(value)
        except ValueError as exc:
            raise UsageError(f"{path}: bad value for {key}: {exc}") from exc
    return fields


def _build(cls, table: dict, path):
    """``cls`` from the file's settings; an invalid one is reported by its key."""
    fields = _apply(read_key_values(path), table, path)
    try:
        return cls(**fields)
    except ValueError as exc:
        # The config classes name the offending field first.
        field, _, rest = str(exc).partition(" ")
        key = next((k for k, (name, _) in table.items() if name == field), field)
        raise UsageError(f"{path}: {key} {rest}") from exc


def swarm_config_from_file(path) -> SwarmConfig:
    cfg = _build(SwarmConfig, SWARM_KEYS, path)
    if cfg.cdc > SEARCH_DIM:
        raise UsageError(
            f"{path}: CDC = {cfg.cdc} exceeds the search dimension {SEARCH_DIM}"
        )
    return cfg


def pso_config_from_file(path) -> PsoConfig:
    return _build(PsoConfig, PSO_KEYS, path)
