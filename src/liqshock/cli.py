"""Command-line driver: solve, converge, extrapolate, verify.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis
from .config import CHOICES, RunConfig, parse_config
from .errors import ConfigError, NumericalError, ValidationError
from .mesh import HALF_MIN_SPACING, time_grid_from_space
from .model import to_prices
from .schemes import NATURAL, SchemeConfig, initial_state, solve_forward

_SCHEMES = {"linear": "imex_linear", "linearized": "imex_linearized"}

_CONVERGE_LEVELS = "30,60,120,240,480,960"
_EXTRAPOLATE_LEVELS = "40,80,160,320,640"

# Flags of every command; each overrides the RunConfig field its dest
# names.
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


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as e:
            raise ValidationError(f"cannot read {args.config}: {e}") from e
    else:
        cfg = RunConfig()
    set_by = {kwargs["dest"]: flag for flag, kwargs in _FLAGS
              if getattr(args, kwargs["dest"]) is not None}
    for dest in set_by:
        setattr(cfg, dest, getattr(args, dest))
    try:
        return cfg.validate()
    except ConfigError as e:
        # the file is already valid, so each entry is a flag's
        raise ValidationError("; ".join(
            f"{set_by.get(key, key)}: {msg}" for _, key, msg in e.entries)
        ) from e


def _scheme_config(cfg: RunConfig) -> SchemeConfig:
    left = NATURAL if cfg.left_bc == "natural" else (lambda tau: 0.0)
    return SchemeConfig(scheme=_SCHEMES[cfg.scheme], left_bc=left)


def _time_grid(cfg: RunConfig, grid):
    rule = HALF_MIN_SPACING if cfg.dt is None else cfg.dt
    return time_grid_from_space(grid, cfg.horizon, rule)


def cmd_solve(cfg: RunConfig) -> int:
    params = cfg.model_params()
    grid = analysis._build_grid(params, cfg.grid, cfg.intervals, cfg.alpha)
    tg = _time_grid(cfg, grid)
    result = solve_forward(params, grid, tg, _scheme_config(cfg))
    dc = result.dc
    first = initial_state(grid, params)
    p_T, q_T = to_prices(first.u, first.v, params.horizon, params, dc)
    p_0, q_0 = to_prices(result.final_state.u, result.final_state.v, 0.0,
                         params, dc)
    lines = ["S,p_at_t0,q_at_t0,p_at_T,q_at_T"]
    for i, s in enumerate(grid.nodes):
        lines.append(",".join(_fmt(x) for x in
                              (s, p_0[i], q_0[i], p_T[i], q_T[i])))
    _write_lines(cfg.output_path, lines)
    return 0


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ValidationError(f"bad levels list {text!r}: {e}") from e
    if not levels:
        raise ValidationError("empty levels list")
    return levels


def cmd_converge(cfg: RunConfig, levels: list[int]) -> int:
    sc = _scheme_config(cfg)
    tables = analysis.convergence_tables(
        cfg.model_params(), sc.scheme, cfg.grid, levels, alpha=cfg.alpha,
        left_bc=sc.left_bc)
    lines = ["I,value_R0,diff_R0,ratio_R0,order_R0,"
             "value_R1,diff_R1,ratio_R1,order_R1"]
    for r0, r1 in zip(tables["r0"], tables["r1"]):
        lines.append(",".join([str(r0.intervals)] + [
            _fmt(x) for x in (r0.value, r0.difference, r0.ratio, r0.order,
                              r1.value, r1.difference, r1.ratio, r1.order)]))
    _write_lines(cfg.output_path, lines)
    return 0


def cmd_extrapolate(cfg: RunConfig, levels: list[int]) -> int:
    sc = _scheme_config(cfg)
    rows = analysis.extrapolated_study(
        cfg.model_params(), sc.scheme, cfg.grid, levels, alpha=cfg.alpha,
        left_bc=sc.left_bc)
    lines = ["I,Z,W,Y,diff_Y,ratio,order"]
    for r in rows:
        lines.append(",".join([str(r.intervals)] + [
            _fmt(x) for x in (r.coarse_value, r.fine_value, r.extrapolated,
                              r.difference, r.ratio, r.order)]))
    _write_lines(cfg.output_path, lines)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    params = cfg.model_params()
    grid = analysis._build_grid(params, cfg.grid, cfg.intervals, cfg.alpha)
    report = analysis.verify(params, grid, _time_grid(cfg, grid),
                             _scheme_config(cfg))
    _write_lines(None, report.lines())
    return 0 if report.passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liqshock",
        description="IMEX solvers for option pricing under liquidity shocks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("solve", "write the price surface CSV"),
                           ("converge", "write a convergence table CSV"),
                           ("extrapolate", "write an extrapolation table CSV"),
                           ("verify", "run the audit suite")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a key=value config file")
        for flag, kwargs in _FLAGS:
            p.add_argument(flag, **kwargs)
        if name in ("converge", "extrapolate"):
            default = (_CONVERGE_LEVELS if name == "converge"
                       else _EXTRAPOLATE_LEVELS)
            p.add_argument("--levels", default=default,
                           help=f"comma list of interval counts "
                                f"(default {default})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "converge":
            return cmd_converge(cfg, _parse_levels(args.levels))
        if args.command == "extrapolate":
            return cmd_extrapolate(cfg, _parse_levels(args.levels))
        return cmd_verify(cfg)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
