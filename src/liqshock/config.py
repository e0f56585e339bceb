"""Run-configuration files: a line-oriented key=value format.

Blank lines and '#' comments are ignored, keys are case-sensitive, and
unknown or duplicate keys are rejected with their line numbers.  Missing
keys fall back to the documented defaults (the standard experiment set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ValidationError
from .mesh import MAX_CELLS, _checked_steps
from .model import ModelParams, _param_problems
from .schemes import NATURAL, SCHEMES

__all__ = ["RunConfig", "parse_config"]

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

    def validate(self, one_grid: bool) -> list[tuple[str, str]]:
        """Every (key, problem) of this config, as a run on one grid
        (``one_grid``, where a set dt fixes the step count) or as a
        ladder will use it."""
        errs = [(key, "must be " + " or ".join(allowed))
                for key, allowed in CHOICES.items()
                if getattr(self, key) not in allowed]
        if self.intervals < 2:
            errs.append(("intervals", "must be >= 2"))
        elif self.intervals > MAX_CELLS:
            errs.append(("intervals", f"must be <= {MAX_CELLS}"))
        for key in ("alpha", "dt"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:  # also NaN
                errs.append((key, "must be > 0 and finite"))
        if self.dt is not None and self.horizon < self.dt < math.inf:
            errs.append(("dt", "must not exceed the horizon"))
        errs += _param_problems(self).items()
        if one_grid and self.dt is not None and not errs:
            try:
                _checked_steps(self.intervals, self.horizon, self.dt)
            except ValidationError as e:
                errs.append(("dt", str(e)))
        return errs


# Each key parses as its RunConfig annotation ("float | None" -> float).
_PARSE = {f.name: {"float": float, "int": int, "str": str}[
    f.type.split(" |")[0]] for f in fields(RunConfig)}


def _read_config(text: str) -> tuple[RunConfig, dict[str, int]]:
    """Parse config text (syntax, types, unknown and duplicate keys only),
    returning the config and the line that set each key."""
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
    return RunConfig(**values), seen


def parse_config(text: str) -> RunConfig:
    """Parse and check config text; collects every problem before
    raising.  The step count a set dt gives is left to the run."""
    cfg, lines = _read_config(text)
    problems = cfg.validate(one_grid=False)
    if problems:
        raise ConfigError([(lines.get(key, 0), key, msg)
                           for key, msg in problems])
    return cfg
