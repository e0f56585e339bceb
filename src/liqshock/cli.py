"""Command-line driver: solve, converge, extrapolate, verify.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import astuple

from . import analysis
from .config import CHOICES, RunConfig, _read_config
from .errors import ConfigError, NumericalError, ValidationError
from .mesh import HALF_MIN_SPACING, time_grid_from_space
from .model import to_prices
from .schemes import SchemeConfig, initial_state, solve_forward

# Flags of the commands; each overrides the RunConfig field its dest
# names.  Only solve and verify take --I: the ladders take --levels.
_FLAGS = (
    ("--scheme", dict(dest="scheme", choices=CHOICES["scheme"])),
    ("--grid", dict(dest="grid", choices=CHOICES["grid"])),
    ("--alpha", dict(dest="alpha", type=float)),
    ("--I", dict(dest="intervals", type=int)),
    ("--left-bc", dict(dest="left_bc", choices=CHOICES["left_bc"])),
    ("--out", dict(dest="output_path", metavar="OUT",
                   help="output path (default: stdout)")),
)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


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
    set_by = {kwargs["dest"]: flag for flag, kwargs in _FLAGS
              if getattr(args, kwargs["dest"], None) is not None}
    for dest in set_by:
        setattr(cfg, dest, getattr(args, dest))
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
    grid = analysis._build_grid(params, cfg.grid, cfg.intervals, cfg.alpha)
    rule = HALF_MIN_SPACING if cfg.dt is None else cfg.dt
    return params, grid, time_grid_from_space(grid, cfg.horizon, rule)


def _write_csv(path: str | None, header: str, rows):
    _write_lines(path, [header] + [",".join(map(_fmt, row)) for row in rows])


def cmd_solve(cfg: RunConfig) -> int:
    params, grid, tg = _one_grid(cfg)
    result = solve_forward(params, grid, tg, _scheme_config(cfg))
    dc = result.dc
    first = initial_state(grid, params)
    p_T, q_T = to_prices(first.u, first.v, params.horizon, params, dc)
    p_0, q_0 = to_prices(result.final_state.u, result.final_state.v, 0.0,
                         params, dc)
    _write_csv(cfg.output_path, "S,p_at_t0,q_at_t0,p_at_T,q_at_T",
               zip(grid.nodes, p_0, q_0, p_T, q_T))
    return 0


def _study(study, cfg: RunConfig, levels: str):
    """Run a ladder study on the comma list ``levels``.  Every level's
    grids are built first, so a bad level names --levels; an error from
    a run prints as it does for solve."""
    params = cfg.model_params()
    try:
        sizes = [int(tok) for tok in levels.split(",") if tok.strip()]
        analysis._level_grids(params, cfg.grid, sizes, cfg.alpha)
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
    rows = _study(analysis.extrapolated_study, cfg, levels)
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
        for flag, kwargs in _FLAGS:
            if flag != "--I" or levels is None:
                p.add_argument(flag, **kwargs)
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
