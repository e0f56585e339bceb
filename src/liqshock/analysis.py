"""Temporal extrapolation, convergence studies, reference oracles, audits.

The studies march the solvers over a doubling ladder of spatial
resolutions with the time step slaved to half the minimum spacing, probe
the at-the-money value at issue time, and report successive differences,
their ratios, and the implied convergence orders.  Extrapolation pairs a
run at dt with a run at dt/2 on the same spatial grid and combines them
as 2W - Z, cancelling the leading O(dt) error term.

Two independent reference solvers back the verification suite: a
classical fixed-step RK4 integrator for the spatially constant reduction
of the system, and a damped-Newton solver of the fully implicit scheme
that the linearized stepper approximates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

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
from .model import (ModelParams, derive_constants, payoff_call, payoff_zero,
                    to_prices)
from .schemes import (
    NATURAL,
    RESTRICTION_SLACK,
    GridState,
    SchemeConfig,
    SolveResult,
    StepPlan,
    initial_state,
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
    "verify",
    "at_the_money",
]

POSITIVITY_TOL = -1e-10
COMPARISON_TOL = -1e-12
TRANSLATION_TOL = 1e-12
SUP_BOUND_TOL = -1e-9

# Newton stopping rule of the implicit oracle: residual max norm and
# iteration cap per time level.
ORACLE_TOL = 1e-12
ORACLE_MAX_ITER = 100


# --------------------------------------------------------------------------
# Richardson extrapolation
# --------------------------------------------------------------------------

def richardson(z: float, w: float) -> float:
    """Combine a coarse value z (step dt) and fine value w (step dt/2).

    Returns 2w - z, which removes the O(dt) error term of the first-order
    schemes when both runs share the spatial grid.
    """
    return 2.0 * w - z


# --------------------------------------------------------------------------
# Convergence ladders
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    intervals: int
    value: float
    difference: float | None
    ratio: float | None
    order: float | None


@dataclass(frozen=True)
class ExtrapolationRow:
    intervals: int
    coarse_value: float
    fine_value: float
    extrapolated: float
    difference: float | None
    ratio: float | None
    order: float | None


def at_the_money(result: SolveResult, quantity: str = "r0") -> float:
    """Linear interpolation of R0 ("r0") or R1 ("r1") at S = strike on
    the final level."""
    if quantity not in ("r0", "r1"):
        raise ValidationError(f"quantity must be 'r0' or 'r1': {quantity!r}")
    values = result.final_state.u if quantity == "r0" else result.final_state.v
    return float(np.interp(result.params.strike, result.grid.nodes, values)
                 ) / result.params.gamma


def _build_grid(params: ModelParams, grid_kind: str, intervals: int,
                alpha: float) -> SpatialGrid:
    if grid_kind == "uniform":
        return uniform_grid(params.s_min, params.s_max, intervals)
    if grid_kind == "tavella":
        return tavella_randall_grid(params.s_min, params.s_max, params.strike,
                                    alpha, intervals)
    raise ValidationError(f"unknown grid kind {grid_kind!r}")


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


def convergence_tables(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int], alpha: float = 15.0,
                       left_bc=NATURAL, on_result=None,
                       ) -> dict[str, list[ConvergenceRow]]:
    """Solve each level of a doubling ladder once and tabulate the
    convergence of the at-the-money R0 ("r0") and R1 ("r1").

    ``on_result`` (when given) receives every SolveResult, e.g. to audit
    the per-run diagnostics.
    """
    results = [runs[0] for runs in _ladder(params, scheme, grid_kind, levels,
                                           alpha, left_bc, on_result)]
    return {q: _rows_from_values(levels, [at_the_money(r, q) for r in results])
            for q in ("r0", "r1")}


def convergence_study(params: ModelParams, scheme: str, grid_kind: str,
                      levels: Sequence[int], alpha: float = 15.0,
                      left_bc=NATURAL, on_result=None) -> list[ConvergenceRow]:
    """The R0 table of ``convergence_tables``."""
    return convergence_tables(params, scheme, grid_kind, levels, alpha,
                              left_bc, on_result)["r0"]


def extrapolated_study(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int], alpha: float = 15.0,
                       left_bc=NATURAL, on_result=None,
                       ) -> list[ExtrapolationRow]:
    """Per level: pair the slaved dt with dt/2 on the same spatial grid
    and extrapolate the at-the-money R0; tabulate the extrapolated
    values."""
    pairs = [(at_the_money(coarse), at_the_money(fine))
             for coarse, fine in _ladder(params, scheme, grid_kind, levels,
                                         alpha, left_bc, on_result,
                                         halved=True)]
    rows = _rows_from_values(levels, [richardson(z, w) for z, w in pairs])
    return [ExtrapolationRow(intervals=r.intervals, coarse_value=z,
                             fine_value=w, extrapolated=r.value,
                             difference=r.difference, ratio=r.ratio,
                             order=r.order)
            for r, (z, w) in zip(rows, pairs)]


# --------------------------------------------------------------------------
# Reference oracles
# --------------------------------------------------------------------------

def ode_oracle(params: ModelParams, h_star: float,
               dt_ref: float) -> tuple[float, float]:
    """Integrate the spatially constant reduction with fixed-step RK4.

    u' = b - a e^(u-v), v' = c (1 - e^(v-u)), u(0) = v(0) = gamma*h_star.
    The result is accurate to O(dt_ref^4) and serves as an independent
    reference for constant-data solver runs.
    """
    dc = derive_constants(params)
    T = params.horizon
    if not 0 < dt_ref < math.inf:  # also rejects NaN
        raise ValidationError("dt_ref must be > 0 and finite")
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
                    config: SchemeConfig | None = None, payoff=payoff_call
                    ) -> GridState:
    """Solve the fully implicit scheme exactly, level by level.

    Each time level solves the coupled nonlinear system (implicit
    diffusion, implicit reaction in both unknowns, and - unlike the
    production steppers - an implicit version of the natural boundary
    rule) by damped Newton iteration down to ``ORACLE_TOL`` in the
    residual max norm.  The Newton corrections are obtained from a dense
    solve, so the oracle shares no code path with the production
    elimination.
    Intended for small instances as the reference the linearized stepper
    approximates.
    """
    if grid.intervals > 64 or tg.steps > 128:
        raise ValidationError("implicit oracle is restricted to I <= 64, J <= 128")
    plan = StepPlan(grid, tg, derive_constants(params),
                    config or SchemeConfig())
    config, dc, a_lo, b_up = plan.config, plan.dc, plan.lower, plan.upper
    dt = tg.dt
    n = grid.intervals + 1
    left_natural = config.left_bc == NATURAL
    right_natural = config.right_bc == NATURAL
    state = initial_state(grid, params, payoff)
    for _ in range(tg.steps):
        u_old, v_old = state.u, state.v
        tau_next = (state.step_index + 1) * dt
        # an edge without a rule keeps its level-j value
        un = u_old.copy()
        if callable(config.left_bc):
            un[0] = float(config.left_bc(tau_next))
        if callable(config.right_bc):
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
        converged = res < ORACLE_TOL
        for _ in range(ORACLE_MAX_ITER):
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
                if res_t < res or res_t < ORACLE_TOL:
                    break
                step *= 0.5
            un, vn, ru, rv, e, zz, res = u_try, v_try, ru_t, rv_t, e_t, zz_t, res_t
            converged = res < ORACLE_TOL
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
    location: tuple | None


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


def _scan(name: str, runs, arrays, passes, largest=False) -> CheckResult:
    """First strict minimum of ``arrays(*states)`` over the zipped
    trajectories of ``runs``, with its (level, node), graded by ``passes``.

    The runs must carry trajectories and share one grid and time
    partition.  ``largest`` scans non-negative errors for the first strict
    maximum above 0, so an exact match reports no location.
    """
    for run in runs:
        if run.trajectory is None:
            raise ValidationError(
                f"{name} audit needs a run with capture_trajectory=True")
    if any(r.grid.intervals != runs[0].grid.intervals
           or r.tg.steps != runs[0].tg.steps for r in runs):
        raise ValidationError("runs must share the grid and time partition")
    pick, better = ((np.argmax, operator.gt) if largest
                    else (np.argmin, operator.lt))
    worst = 0.0 if largest else math.inf
    where = None
    for states in zip(*(r.trajectory for r in runs)):
        for arr in arrays(*states):
            node = int(pick(arr))
            if better(arr[node], worst):
                worst, where = float(arr[node]), (states[0].step_index, node)
    return CheckResult(name, passes(worst), worst, where)


def audit_positivity(run: SolveResult) -> CheckResult:
    """Worst transformed price (p or q) over the whole space-time grid."""
    T, dt = run.params.horizon, run.tg.dt
    return _scan("positivity", [run], lambda s: to_prices(
        s.u, s.v, T - s.step_index * dt, run.params, run.dc),
        lambda worst: worst >= POSITIVITY_TOL)


def audit_comparison(upper: SolveResult, lower: SolveResult) -> CheckResult:
    """Discrete comparison: the run with larger data stays above pointwise."""
    return _scan("comparison", [upper, lower],
                 lambda hi, lo: (hi.u - lo.u, hi.v - lo.v),
                 lambda worst: worst >= COMPARISON_TOL)


def audit_translation(base: SolveResult, shifted: SolveResult,
                      delta: float) -> CheckResult:
    """Shifting data by delta must shift the solution by exactly delta."""
    return _scan("translation", [base, shifted],
                 lambda b, s: (np.abs(s.u - b.u - delta),
                               np.abs(s.v - b.v - delta)),
                 lambda worst: worst <= TRANSLATION_TOL, largest=True)


def audit_m_matrix(run: SolveResult) -> CheckResult:
    d = run.diagnostics
    return CheckResult("m_matrix", d.m_matrix_ok, d.min_d, (d.min_d_step,))


def audit_sup_bound(run: SolveResult) -> CheckResult:
    d = run.diagnostics
    return CheckResult("sup_bound", d.bound_margin >= SUP_BOUND_TOL,
                       d.bound_margin, (d.bound_margin_step,))


def _lifted_call(s, k):
    """Call payoff plus 0.1: the dominating data of ``verify``."""
    return payoff_call(s, k) + 0.1


def verify(params: ModelParams, grid: SpatialGrid, tg: TimeGrid,
           config: SchemeConfig) -> AuditReport:
    """The audit suite that ``liqshock verify`` prints.

    Three captured runs on one grid (call payoff, call + 0.1, zero
    payoff) feed six checks: positivity of the call run, comparison of
    each ordered pair, translation by 0.1 gamma, the M-matrix pattern and
    the sup-norm bound.  The restriction maximum is taken over all three
    runs.  Failures are reported as data, never raised.
    """
    base, shifted, zero = [
        solve_forward(params, grid, tg, config, payoff=payoff,
                      capture_trajectory=True)
        for payoff in (payoff_call, _lifted_call, payoff_zero)]
    checks = [
        audit_positivity(base),
        replace(audit_comparison(shifted, base), name="comparison(h+0.1)"),
        replace(audit_comparison(base, zero), name="comparison(call vs 0)"),
        audit_translation(base, shifted, 0.1 * params.gamma),
        audit_m_matrix(base),
        audit_sup_bound(base),
    ]
    return AuditReport(checks=checks, restriction_max=max(
        r.diagnostics.restriction_max for r in (base, shifted, zero)))
