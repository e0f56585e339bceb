"""Temporal extrapolation, convergence studies, reference oracles, audits.

The studies march the solvers over a doubling ladder of spatial
resolutions with the time step slaved to half the minimum spacing, probe
the at-the-money value at issue time, and report successive differences,
their ratios, and the implied convergence orders.  Extrapolation pairs a
run at dt with a run at dt/2 on the same spatial grid and combines them
as (2^p W - Z)/(2^p - 1), cancelling the leading O(dt^p) error term.

Two independent reference solvers back the verification suite: a
classical fixed-step RK4 integrator for the spatially constant reduction
of the system, and a damped-Newton solver of the fully implicit scheme
that the linearized stepper approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OracleConvergenceError, ValidationError
from .mesh import (
    HALF_MIN_SPACING,
    SpatialGrid,
    TimeGrid,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
)
from .model import ModelParams, derive_constants, payoff_call, to_prices
from .schemes import (
    NATURAL,
    RESTRICTION_SLACK,
    GridState,
    SchemeConfig,
    SolveResult,
    _interior_coefficients,
    initial_state,
    resolve_config,
    solve_forward,
)

__all__ = [
    "ConvergenceRow",
    "richardson",
    "convergence_study",
    "convergence_tables",
    "ExtrapolationRow",
    "extrapolated_study",
    "ode_oracle",
    "implicit_oracle",
    "CheckResult",
    "AuditReport",
    "audit_positivity",
    "audit_comparison",
    "audit_translation",
    "audit_m_matrix",
    "audit_sup_bound",
    "audit_run",
    "at_the_money",
]

_GRID_KINDS = {"uniform": "uniform", "tavella": "tavella_randall",
               "tavella_randall": "tavella_randall"}

POSITIVITY_TOL = -1e-10
COMPARISON_TOL = -1e-12
TRANSLATION_TOL = 1e-12


# --------------------------------------------------------------------------
# Richardson extrapolation
# --------------------------------------------------------------------------

def richardson(z: float, w: float, p: int = 1) -> float:
    """Combine a coarse value z (step dt) and fine value w (step dt/2).

    Returns (2^p w - z) / (2^p - 1), which removes the O(dt^p) error term
    when both runs share the spatial grid.
    """
    if p < 1:
        raise ValidationError("extrapolation order p must be >= 1")
    factor = 2.0 ** p
    return (factor * w - z) / (factor - 1.0)


# --------------------------------------------------------------------------
# Convergence ladders
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    intervals: int
    value: float
    difference: float | None = None
    ratio: float | None = None
    order: float | None = None


@dataclass(frozen=True)
class ExtrapolationRow:
    intervals: int
    coarse_value: float
    fine_value: float
    extrapolated: float
    difference: float | None = None
    ratio: float | None = None
    order: float | None = None


def at_the_money(result: SolveResult, quantity: str = "r0") -> float:
    """Linear interpolation of R0 or R1 at S = strike on the final level."""
    grid = result.grid
    values = result.final_state.u if quantity == "r0" else result.final_state.v
    return float(np.interp(result.params.strike, grid.nodes, values)
                 ) / result.params.gamma


def _build_grid(params: ModelParams, grid_kind: str, intervals: int,
                alpha: float) -> SpatialGrid:
    kind = _GRID_KINDS.get(grid_kind)
    if kind is None:
        raise ValidationError(f"unknown grid kind {grid_kind!r}")
    if kind == "uniform":
        return uniform_grid(params.s_min, params.s_max, intervals)
    return tavella_randall_grid(params.s_min, params.s_max, params.strike,
                                alpha, intervals)


def _validate_levels(levels: Sequence[int]):
    if len(levels) < 1:
        raise ValidationError("need at least one level")
    for prev, cur in zip(levels, levels[1:]):
        if cur != 2 * prev:
            raise ValidationError("levels must double at each step")


def _rows_from_values(levels, values) -> list[ConvergenceRow]:
    rows = []
    prev_diff = None
    for k, (lvl, val) in enumerate(zip(levels, values)):
        diff = abs(val - values[k - 1]) if k >= 1 else None
        ratio = order = None
        if k >= 2 and diff and prev_diff:
            ratio = prev_diff / diff
            order = math.log2(ratio)
        rows.append(ConvergenceRow(intervals=lvl, value=val, difference=diff,
                                   ratio=ratio, order=order))
        prev_diff = diff
    return rows


def _probe(quantity) -> Callable[[SolveResult], float]:
    if callable(quantity):
        return quantity
    return lambda res: at_the_money(res, quantity)


def _ladder(params, scheme, grid_kind, levels, alpha, left_bc, on_result,
            halved=False):
    """Per level, yield the runs at the slaved dt and (with ``halved``)
    at dt/2 on the same spatial grid, each first passed to ``on_result``."""
    _validate_levels(levels)
    config = SchemeConfig(scheme=scheme, left_bc=left_bc)
    for lvl in levels:
        grid = _build_grid(params, grid_kind, lvl, alpha)
        tg = time_grid_from_space(grid, params.horizon, HALF_MIN_SPACING)
        runs = [solve_forward(params, grid, t, config)
                for t in ((tg, tg.halved()) if halved else (tg,))]
        if on_result is not None:
            for run in runs:
                on_result(run)
        yield runs


def convergence_study(params: ModelParams, scheme: str, grid_kind: str,
                      levels: Sequence[int],
                      quantity: str | Callable[[SolveResult], float] = "r0",
                      alpha: float = 15.0, left_bc=NATURAL,
                      on_result=None) -> list[ConvergenceRow]:
    """Solve each level of a doubling ladder and tabulate convergence.

    ``quantity`` is "r0", "r1", or a callable probing a SolveResult.
    ``on_result`` (when given) receives every SolveResult, e.g. to audit
    the per-run diagnostics.
    """
    probe = _probe(quantity)
    values = [probe(runs[0]) for runs in _ladder(
        params, scheme, grid_kind, levels, alpha, left_bc, on_result)]
    return _rows_from_values(levels, values)


def convergence_tables(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int], alpha: float = 15.0,
                       left_bc=NATURAL, on_result=None,
                       ) -> dict[str, list[ConvergenceRow]]:
    """Like convergence_study but probes R0 and R1 from one solve per level."""
    results = [runs[0] for runs in _ladder(params, scheme, grid_kind, levels,
                                           alpha, left_bc, on_result)]
    return {q: _rows_from_values(levels, [at_the_money(r, q) for r in results])
            for q in ("r0", "r1")}


def extrapolated_study(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int],
                       quantity: str | Callable[[SolveResult], float] = "r0",
                       alpha: float = 15.0, left_bc=NATURAL,
                       on_result=None) -> list[ExtrapolationRow]:
    """Per level: pair the slaved dt with dt/2 on the same spatial grid
    and extrapolate at order 1; tabulate the extrapolated values."""
    probe = _probe(quantity)
    pairs = [(probe(coarse), probe(fine)) for coarse, fine in _ladder(
        params, scheme, grid_kind, levels, alpha, left_bc, on_result,
        halved=True)]
    rows = _rows_from_values(levels, [richardson(z, w, 1) for z, w in pairs])
    return [ExtrapolationRow(intervals=r.intervals, coarse_value=z,
                             fine_value=w, extrapolated=r.value,
                             difference=r.difference, ratio=r.ratio,
                             order=r.order)
            for r, (z, w) in zip(rows, pairs)]


# --------------------------------------------------------------------------
# Reference oracles
# --------------------------------------------------------------------------

def ode_oracle(params: ModelParams, h_star: float,
               dt_ref: float | None = None) -> tuple[float, float]:
    """Integrate the spatially constant reduction with fixed-step RK4.

    u' = b - a e^(u-v), v' = c (1 - e^(v-u)), u(0) = v(0) = gamma*h_star.
    The result is accurate to O(dt_ref^4) and serves as an independent
    reference for constant-data solver runs.
    """
    dc = derive_constants(params)
    T = params.horizon
    if dt_ref is None:
        dt_ref = 1e-5 * T
    if dt_ref <= 0:
        raise ValidationError("dt_ref must be > 0")
    n = max(1, math.ceil(T / dt_ref * (1.0 - 1e-12)))
    dt = T / n
    u = v = params.gamma * h_star

    def f(uu, vv):
        return dc.b - dc.a * math.exp(uu - vv), dc.c * (1.0 - math.exp(vv - uu))

    for _ in range(n):
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        u += dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


def implicit_oracle(params: ModelParams, grid: SpatialGrid, tg: TimeGrid,
                    config: SchemeConfig | None = None, payoff=payoff_call,
                    tol: float = 1e-12, max_iter: int = 100) -> GridState:
    """Solve the fully implicit scheme exactly, level by level.

    Each time level solves the coupled nonlinear system (implicit
    diffusion, implicit reaction in both unknowns, and - unlike the
    production steppers - an implicit version of the natural boundary
    rule) by damped Newton iteration down to ``tol`` in the residual max
    norm.  The Newton corrections are obtained from a dense solve, so
    the oracle shares no code path with the production elimination.
    Intended for small instances as the reference the linearized stepper
    approximates.
    """
    if grid.intervals > 64 or tg.steps > 128:
        raise ValidationError("implicit oracle is restricted to I <= 64, J <= 128")
    config = resolve_config(config or SchemeConfig(), params, payoff)
    dc = derive_constants(params)
    a_lo, b_up = _interior_coefficients(grid, dc.sigma)
    dt = tg.dt
    n = grid.intervals + 1
    left_natural = config.left_bc == NATURAL
    right_natural = config.right_bc == NATURAL
    free = np.ones(n, dtype=bool)
    free[0] = left_natural
    free[-1] = right_natural
    state = initial_state(grid, params, payoff)
    for _ in range(tg.steps):
        u_old, v_old = state.u, state.v
        tau_next = (state.step_index + 1) * dt
        un = u_old.copy()
        if not left_natural:
            un[0] = float(config.left_bc(tau_next))
        if not right_natural:
            un[-1] = float(config.right_bc(tau_next))
        vn = v_old.copy()

        def residual(uu, vv):
            e = dc.a * np.exp(uu - vv)
            zz = dc.c * np.exp(vv - uu)
            ru = np.zeros(n)
            diffusion = (a_lo * uu[:-2] - (a_lo + b_up) * uu[1:-1]
                         + b_up * uu[2:])
            ru[1:-1] = (uu[1:-1] - u_old[1:-1]) / dt - diffusion + e[1:-1] - dc.b
            # Natural edges follow the reduced reaction ODE, implicitly.
            if left_natural:
                ru[0] = (uu[0] - u_old[0]) / dt + e[0] - dc.b
            if right_natural:
                ru[-1] = (uu[-1] - u_old[-1]) / dt + e[-1] - dc.b
            rv = (vv - v_old) / dt + zz - dc.c
            return ru, rv, e, zz

        ru, rv, e, zz = residual(un, vn)
        res = max(np.abs(ru).max(), np.abs(rv).max())
        converged = res < tol
        for _ in range(max_iter):
            if converged:
                break
            jvv = 1.0 / dt + zz
            # Schur complement in U after eliminating the diagonal V-block.
            jac = np.zeros((n, n))
            rhs = np.zeros(n)
            reduced = 1.0 / dt + e - e * zz / jvv
            for i in range(1, n - 1):
                jac[i, i - 1] = -a_lo[i - 1]
                jac[i, i] = reduced[i] + a_lo[i - 1] + b_up[i - 1]
                jac[i, i + 1] = -b_up[i - 1]
                rhs[i] = -ru[i] - e[i] * rv[i] / jvv[i]
            for i, natural in ((0, left_natural), (n - 1, right_natural)):
                if natural:
                    jac[i, i] = reduced[i]
                    rhs[i] = -ru[i] - e[i] * rv[i] / jvv[i]
                else:
                    jac[i, i] = 1.0
            du = np.linalg.solve(jac, rhs)
            dv = (-rv + zz * du) / jvv
            step = 1.0
            for _ in range(40):
                u_try = un + step * du
                v_try = vn + step * dv
                ru_t, rv_t, e_t, zz_t = residual(u_try, v_try)
                res_t = max(np.abs(ru_t).max(), np.abs(rv_t).max())
                if res_t < res or res_t < tol:
                    break
                step *= 0.5
            un, vn, ru, rv, e, zz, res = u_try, v_try, ru_t, rv_t, e_t, zz_t, res_t
            converged = res < tol
        if not converged:
            raise OracleConvergenceError(
                f"implicit step stalled at residual {res:.3e}")
        state = GridState(state.step_index + 1, un, vn)
    return state


# --------------------------------------------------------------------------
# Audits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    location: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: list[CheckResult]
    restriction_max: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def restriction_ok(self) -> bool:
        return self.restriction_max <= RESTRICTION_SLACK

    def lines(self) -> list[str]:
        """One status line per check, then a warning line when the
        reaction step restriction was violated in any audited run."""
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            loc = (f" at (level,node)={c.location}"
                   if c.location is not None else "")
            out.append(f"[{status}] {c.name}: worst {c.worst:.3e}{loc}")
        if not self.restriction_ok:
            out.append(f"[WARN] reaction time-step restriction ratio "
                       f"{self.restriction_max:.3g} exceeds 1")
        return out


def _require_trajectory(run: SolveResult, check: str):
    if run.trajectory is None:
        raise ValidationError(
            f"{check} audit needs a run with capture_trajectory=True")


def _require_matching(a: SolveResult, b: SolveResult):
    if a.grid.intervals != b.grid.intervals or a.tg.steps != b.tg.steps:
        raise ValidationError("runs must share the grid and time partition")


def audit_positivity(run: SolveResult, tol: float = POSITIVITY_TOL) -> CheckResult:
    """Worst transformed price (p or q) over the whole space-time grid."""
    _require_trajectory(run, "positivity")
    T = run.params.horizon
    dt = run.tg.dt
    worst = math.inf
    where = None
    which = ""
    for state in run.trajectory:
        t = T - state.step_index * dt
        p, q = to_prices(state.u, state.v, t, run.params, run.dc)
        for label, arr in (("p", p), ("q", q)):
            m = float(arr.min())
            if m < worst:
                worst = m
                where = (state.step_index, int(arr.argmin()))
                which = label
    return CheckResult("positivity", worst >= tol, worst, where,
                       detail=f"min over {which}")


def audit_comparison(upper: SolveResult, lower: SolveResult,
                     tol: float = COMPARISON_TOL) -> CheckResult:
    """Discrete comparison: the run with larger data stays above pointwise."""
    _require_trajectory(upper, "comparison")
    _require_trajectory(lower, "comparison")
    _require_matching(upper, lower)
    worst = math.inf
    where = None
    for hi, lo in zip(upper.trajectory, lower.trajectory):
        for arr_hi, arr_lo in ((hi.u, lo.u), (hi.v, lo.v)):
            gap = arr_hi - arr_lo
            m = float(gap.min())
            if m < worst:
                worst = m
                where = (hi.step_index, int(gap.argmin()))
    return CheckResult("comparison", worst >= tol, worst, where)


def audit_translation(base: SolveResult, shifted: SolveResult, delta: float,
                      tol: float = TRANSLATION_TOL) -> CheckResult:
    """Shifting data by delta must shift the solution by exactly delta."""
    _require_trajectory(base, "translation")
    _require_trajectory(shifted, "translation")
    _require_matching(base, shifted)
    worst = 0.0
    where = None
    for b, s in zip(base.trajectory, shifted.trajectory):
        for arr_b, arr_s in ((b.u, s.u), (b.v, s.v)):
            err = np.abs(arr_s - arr_b - delta)
            m = float(err.max())
            if m > worst:
                worst = m
                where = (b.step_index, int(err.argmax()))
    return CheckResult("translation", worst <= tol, worst, where)


def audit_m_matrix(run: SolveResult) -> CheckResult:
    d = run.diagnostics
    return CheckResult("m_matrix", d.m_matrix_ok, d.min_d,
                       (d.min_d_step,), detail=f"{d.solves} solves")


def audit_sup_bound(run: SolveResult, tol: float = -1e-9) -> CheckResult:
    d = run.diagnostics
    return CheckResult("sup_bound", d.bound_margin >= tol,
                       d.bound_margin, (d.bound_margin_step,))


_TWO_RUN_CHECKS = {"comparison", "translation"}


def audit_run(primary: SolveResult, secondary: SolveResult | None = None,
              checks: Sequence[str] = ("positivity", "m_matrix",
                                       "sup_bound"),
              delta: float | None = None) -> AuditReport:
    """Run the named checks and collect a report.

    Two-run checks read ``secondary`` as the dominating (comparison) or
    shifted (translation) run; ``delta`` is the translation shift.
    Failures are reported as data, never raised.
    """
    results = []
    for name in checks:
        if name in _TWO_RUN_CHECKS and secondary is None:
            raise ValidationError(f"{name} audit needs a secondary run")
        if name == "positivity":
            results.append(audit_positivity(primary))
        elif name == "comparison":
            results.append(audit_comparison(secondary, primary))
        elif name == "translation":
            if delta is None:
                raise ValidationError("translation audit needs delta")
            results.append(audit_translation(primary, secondary, delta))
        elif name == "m_matrix":
            results.append(audit_m_matrix(primary))
        elif name == "sup_bound":
            results.append(audit_sup_bound(primary))
        else:
            raise ValidationError(f"unknown audit check {name!r}")
    restriction_max = primary.diagnostics.restriction_max
    if secondary is not None:
        restriction_max = max(restriction_max,
                              secondary.diagnostics.restriction_max)
    return AuditReport(checks=results, restriction_max=restriction_max)
