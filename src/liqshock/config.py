"""Run-configuration files: a line-oriented key=value format.

Blank lines and '#' comments are ignored, keys are case-sensitive, and
unknown or duplicate keys are rejected with their line numbers.  Missing
keys fall back to the documented defaults (the standard experiment set).
``emit_config`` writes a canonical form that ``parse_config`` maps back
to the same RunConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import ModelParams, _param_problems
from .schemes import NATURAL, SCHEMES

__all__ = ["RunConfig", "parse_config", "emit_config"]

# Allowed values of the word-valued keys, in the order validate reports
# them; scheme and left_bc map each word to what it selects.
CHOICES = {
    "grid": ("uniform", "tavella"),
    "scheme": {word: name for name, word in SCHEMES.items()},
    "left_bc": {"natural": NATURAL, "dirichlet": lambda tau: 0.0},
}


@dataclass
class RunConfig:
    sigma: float = 0.3
    mu: float = 0.06
    gamma: float = 1.0
    nu01: float = 1.0
    nu10: float = 12.0
    strike: float = 2.0
    horizon: float = 1.0
    s_min: float = 0.0
    s_max: float = 5.0
    grid: str = "uniform"
    intervals: int = 240
    alpha: float = 15.0
    dt: float | None = None            # unset: min spacing / 2
    scheme: str = "linear"
    left_bc: str = "natural"
    output_path: str | None = None

    def model_params(self) -> ModelParams:
        return ModelParams(**{f.name: getattr(self, f.name)
                              for f in fields(ModelParams)})

    def validate(self) -> "RunConfig":
        errs = [(0, key, "must be " + " or ".join(allowed))
                for key, allowed in CHOICES.items()
                if getattr(self, key) not in allowed]
        if self.intervals < 2:
            errs.append((0, "intervals", "must be >= 2"))
        for key in ("alpha", "dt"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:  # also NaN
                errs.append((0, key, "must be > 0 and finite"))
        if self.dt is not None and self.horizon < self.dt < math.inf:
            errs.append((0, "dt", "must not exceed the horizon"))
        errs += [(0, key, msg) for key, msg in _param_problems(self).items()]
        if errs:
            raise ConfigError(errs)
        return self


# Each key parses as its RunConfig annotation ("float | None" -> float).
_PARSE = {f.name: {"float": float, "int": int, "str": str}[
    f.type.split(" |")[0]] for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse config text; collects every malformed line before raising."""
    values = {}
    errors = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, line.split()[0], "expected key=value"))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSE:
            errors.append((lineno, key, "unknown key"))
            continue
        if key in seen:
            errors.append((lineno, key, f"duplicate (first on line {seen[key]})"))
            continue
        seen[key] = lineno
        try:
            values[key] = _PARSE[key](val)
        except ValueError as e:
            errors.append((lineno, key, str(e)))
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(**values)
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError([(seen.get(k, 0), k, m) for _, k, m in e.entries])
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name}={text}")
    return "\n".join(lines) + "\n"
