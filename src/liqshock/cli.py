"""Command-line driver: solve, converge, extrapolate, verify.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 verification failure.

A run's settings come from ``RunConfig``'s defaults (the standard
experiment set), then a ``--config`` file, then the flags.  The file is
line-oriented key=value text: blank lines and '#' comments are ignored,
keys are case-sensitive, and unknown or duplicate keys are rejected with
their line numbers.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import astuple, dataclass, fields

from . import analysis
from .errors import NumericalError, ValidationError
from .mesh import (HALF_MIN_SPACING, _checked_steps, _size_problems,
                   time_grid_from_space)
from .model import ModelParams, _param_problems, to_prices
from .schemes import (NATURAL, SCHEMES, SchemeConfig, initial_state,
                      solve_forward)

# Allowed values of the word-valued keys, in the order validate reports
# them; each maps a word to what it selects.
CHOICES = {
    "grid": analysis._GRIDS,
    "scheme": {word: name for name, word in SCHEMES.items()},
    "left_bc": {"natural": NATURAL, "dirichlet": lambda tau: 0.0},
}


@dataclass
class RunConfig:
    """The settings of one run; each field is a config-file key."""

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
    alpha: float = analysis._ALPHA
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
        errs += _size_problems(self.intervals, self.alpha, self.dt,
                               self.horizon).items()
        errs += _param_problems(self).items()
        if one_grid and self.dt is not None and not errs:
            try:
                _checked_steps(self.intervals, self.horizon, self.dt)
            except ValidationError as e:
                errs.append(("dt", str(e)))
        return errs


class ConfigError(ValidationError):
    """Malformed run-configuration text.

    ``entries`` lists one ``(line_number, key, message)`` tuple per offending
    line so callers can report every problem at once.
    """

    def __init__(self, entries):
        self.entries = list(entries)
        lines = "; ".join(f"line {n}: {key}: {msg}" for n, key, msg in self.entries)
        super().__init__(f"invalid config ({lines})")


# Each key parses as its RunConfig annotation ("float | None" -> float).
_PARSE = {f.name: {"float": float, "int": int, "str": str}[
    f.type.split(" |")[0]] for f in fields(RunConfig)}


def _read_config(text: str) -> tuple[RunConfig, dict[str, int]]:
    """Parse config text (syntax, types, unknown and duplicate keys only),
    returning the config and the line that set each key."""
    values, errors, seen = {}, [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, line.split()[0], "expected key=value"))
            continue
        key, _, val = (part.strip() for part in line.partition("="))
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


# Flags of the commands and the RunConfig field each overrides, which
# sets its type and its words.  Only solve and verify take --I: the
# ladders take --levels.
_FLAGS = {"--scheme": "scheme", "--grid": "grid", "--alpha": "alpha",
          "--I": "intervals", "--left-bc": "left_bc", "--out": "output_path"}


def _fmt(value) -> str:
    return "" if value is None else f"{value:.9g}"


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def _load_config(args, one_grid: bool) -> RunConfig:
    """The config file (or the defaults) with the flags applied, checked
    as the command will use it.  A ladder warns of the file's keys it
    does not use."""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg, lines = _read_config(fh.read())
        except OSError as e:
            raise ValidationError(f"cannot read {args.config}: {e}") from e
    else:
        cfg, lines = RunConfig(), {}
    set_by = {key: flag for flag, key in _FLAGS.items()
              if getattr(args, key, None) is not None}
    for key in set_by:
        setattr(cfg, key, getattr(args, key))
    problems = cfg.validate(one_grid)
    # a bad flag is named only once the rest of the config holds
    unflagged = [(lines.get(key, 0), key, msg) for key, msg in problems
                 if key not in set_by]
    if unflagged:
        raise ConfigError(unflagged)
    if problems:
        raise ValidationError("; ".join(f"{set_by[key]}: {msg}"
                                        for key, msg in problems))
    unused = [key for key in ("intervals", "dt") if key in lines]
    if unused and not one_grid:
        warnings.warn(f"{args.command} ignores the config keys "
                      f"{', '.join(unused)} (--levels sets the grids)")
    return cfg


def _scheme_config(cfg: RunConfig) -> SchemeConfig:
    return SchemeConfig(CHOICES["scheme"][cfg.scheme],
                        CHOICES["left_bc"][cfg.left_bc])


def _one_grid(cfg: RunConfig):
    """Params, spatial grid and time grid of a run on one grid (--I)."""
    params = cfg.model_params()
    grid = analysis._GRIDS[cfg.grid](params, cfg.intervals, cfg.alpha)
    rule = HALF_MIN_SPACING if cfg.dt is None else cfg.dt
    return params, grid, time_grid_from_space(grid, cfg.horizon, rule)


def _write_csv(path: str | None, header: str, rows):
    _write_lines(path, [header] + [",".join(map(_fmt, row)) for row in rows])


def cmd_solve(cfg: RunConfig) -> int:
    params, grid, tg = _one_grid(cfg)
    result = solve_forward(params, grid, tg, _scheme_config(cfg))
    dc = result.plan.dc
    first = initial_state(grid, params)
    p_T, q_T = to_prices(first.u, first.v, params.horizon, params, dc)
    p_0, q_0 = to_prices(result.final_state.u, result.final_state.v, 0.0,
                         params, dc)
    _write_csv(cfg.output_path, "S,p_at_t0,q_at_t0,p_at_T,q_at_T",
               zip(grid.nodes, p_0, q_0, p_T, q_T))
    return 0


def _study(study, cfg: RunConfig, levels: str, halved: bool = False):
    """Run a ladder study on the comma list ``levels``.  Every level's
    grids (with ``halved``, also the dt/2 twins) are built first, so a
    bad level names --levels; an error from a run prints as it does for
    solve."""
    params = cfg.model_params()
    try:
        sizes = [int(tok) for tok in levels.split(",") if tok.strip()]
        analysis._level_grids(params, cfg.grid, sizes, cfg.alpha, halved)
    except ValueError as e:  # ValidationError included
        raise ValidationError(f"--levels: {e}") from e
    sc = _scheme_config(cfg)
    return study(params, sc.scheme, cfg.grid, sizes, alpha=cfg.alpha,
                 left_bc=sc.left_bc)


def cmd_converge(cfg: RunConfig, levels: str) -> int:
    tables = _study(analysis.convergence_tables, cfg, levels)
    _write_csv(cfg.output_path, "I,value_R0,diff_R0,ratio_R0,order_R0,"
               "value_R1,diff_R1,ratio_R1,order_R1",
               [astuple(r0) + astuple(r1)[1:]
                for r0, r1 in zip(tables["r0"], tables["r1"])])
    return 0


def cmd_extrapolate(cfg: RunConfig, levels: str) -> int:
    rows = _study(analysis.extrapolated_study, cfg, levels, halved=True)
    _write_csv(cfg.output_path, "I,Z,W,Y,diff_Y,ratio,order",
               map(astuple, rows))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = analysis.verify(*_one_grid(cfg), _scheme_config(cfg))
    _write_lines(cfg.output_path, report.lines())
    return 0 if report.passed else 3


# name: (function, help, a ladder's default --levels or None for one grid)
_COMMANDS = {
    "solve": (cmd_solve, "write the price surface CSV", None),
    "converge": (cmd_converge, "write a convergence table CSV",
                 "30,60,120,240,480,960"),
    "extrapolate": (cmd_extrapolate, "write an extrapolation table CSV",
                    "40,80,160,320,640"),
    "verify": (cmd_verify, "run the audit suite", None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liqshock",
        description="IMEX solvers for option pricing under liquidity shocks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, levels) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a key=value config file")
        for flag, key in _FLAGS.items():
            if flag == "--out":
                p.add_argument(flag, dest=key, metavar="OUT",
                               help="output path (default: stdout)")
            elif flag != "--I" or levels is None:
                p.add_argument(flag, dest=key, type=_PARSE[key],
                               choices=CHOICES.get(key))
        if levels is not None:
            p.add_argument("--levels", default=levels,
                           help=f"comma list of interval counts "
                                f"(default {levels})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    shown = set()

    def show(message, *_):  # each distinct warning once, as one line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    command, _, levels = _COMMANDS[args.command]
    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            cfg = _load_config(args, one_grid=levels is None)
            if levels is None:
                return command(cfg)
            return command(cfg, args.levels)
        except ValidationError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
