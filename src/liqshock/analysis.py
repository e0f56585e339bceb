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
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import OracleConvergenceError, ValidationError
from .mesh import (
    SpatialGrid,
    TimeGrid,
    _checked_steps,
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
    SolveDiagnostics,
    SolveResult,
    StepPlan,
    _march,
    _start,
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
    the final level; a strike off the grid is an error."""
    if quantity not in ("r0", "r1"):
        raise ValidationError(f"quantity must be 'r0' or 'r1': {quantity!r}")
    nodes = result.plan.grid.nodes
    strike = result.params.strike
    if not nodes[0] <= strike <= nodes[-1]:
        raise ValidationError(f"strike {strike} outside the grid "
                              f"[{nodes[0]}, {nodes[-1]}]")
    values = result.final_state.u if quantity == "r0" else result.final_state.v
    return float(np.interp(strike, nodes, values)) / result.params.gamma


# Each grid kind, as the CLI words it, and its grid on (params,
# intervals, alpha).  The builders are looked up in this module when a
# grid is built, so a wrapper set on the module's name is called.
_GRIDS = {"uniform": lambda p, n, alpha: uniform_grid(p.s_min, p.s_max, n),
          "tavella": lambda p, n, alpha: tavella_randall_grid(
              p.s_min, p.s_max, p.strike, alpha, n)}
# The Tavella-Randall stretch of the studies and the CLI by default
_ALPHA = 15.0


def _level_grids(params: ModelParams, grid_kind: str, levels: Sequence[int],
                 alpha: float, halved: bool = False
                 ) -> list[tuple[SpatialGrid, list[TimeGrid]]]:
    """The spatial grid and the time grids of every level of a doubling
    ladder: the slaved one and (with ``halved``) its dt/2 twin, both cut
    by ``time_grid_from_space``, so that a bad level, or a twin over the
    cell cap, is refused before any level runs."""
    if len(levels) < 1:
        raise ValidationError("need at least one level")
    if any(fine != 2 * coarse for coarse, fine in zip(levels, levels[1:])):
        raise ValidationError("levels must double at each step")
    if grid_kind not in _GRIDS:
        raise ValidationError(f"unknown grid kind {grid_kind!r}")
    grids = [_GRIDS[grid_kind](params, lvl, alpha) for lvl in levels]
    out = []
    for g in grids:
        tgs = [time_grid_from_space(g, params.horizon)]
        if halved:  # dt = T/J, so dt/2 cuts the horizon into 2J steps
            tgs.append(time_grid_from_space(g, params.horizon, tgs[0].dt / 2))
        out.append((g, tgs))
    return out


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


def _read(run: SolveResult, on_result) -> tuple[float, float]:
    """Pass ``run`` to ``on_result`` (when given), then read its
    at-the-money R0 and R1."""
    if on_result is not None:
        on_result(run)
    return at_the_money(run), at_the_money(run, "r1")


def _ladder(params, scheme, grid_kind, levels, alpha, left_bc, on_result,
            halved=False):
    """Per level, yield the at-the-money ``(R0, R1)`` of the run at the
    slaved dt and (with ``halved``) of its dt/2 twin on the same spatial
    grid.  Each run goes to ``on_result`` and is dropped once its values
    are read, before the next run marches: the ladder holds one run at a
    time."""
    config = SchemeConfig(scheme=scheme, left_bc=left_bc)
    for grid, tgs in _level_grids(params, grid_kind, levels, alpha, halved):
        yield [_read(solve_forward(params, grid, t, config), on_result)
               for t in tgs]


def convergence_tables(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int], alpha: float = _ALPHA,
                       left_bc=NATURAL, on_result=None,
                       ) -> dict[str, list[ConvergenceRow]]:
    """Solve each level of a doubling ladder once and tabulate the
    convergence of the at-the-money R0 ("r0") and R1 ("r1").

    ``on_result`` (when given) receives each level's SolveResult in
    turn, e.g. to audit the per-run diagnostics, before the next level
    marches; the ladder keeps no run, so one that ``on_result`` does
    not keep is freed once its values are read.
    """
    r0, r1 = zip(*(level[0] for level in _ladder(
        params, scheme, grid_kind, levels, alpha, left_bc, on_result)))
    return {"r0": _rows_from_values(levels, r0),
            "r1": _rows_from_values(levels, r1)}


def convergence_study(params: ModelParams, scheme: str, grid_kind: str,
                      levels: Sequence[int], alpha: float = _ALPHA,
                      left_bc=NATURAL, on_result=None) -> list[ConvergenceRow]:
    """The R0 table of ``convergence_tables``."""
    return convergence_tables(params, scheme, grid_kind, levels, alpha,
                              left_bc, on_result)["r0"]


def extrapolated_study(params: ModelParams, scheme: str, grid_kind: str,
                       levels: Sequence[int], alpha: float = _ALPHA,
                       left_bc=NATURAL, on_result=None,
                       ) -> list[ExtrapolationRow]:
    """Per level: pair the slaved dt with dt/2 on the same spatial grid
    and extrapolate the at-the-money R0; tabulate the extrapolated
    values.  ``on_result`` sees each level's slaved run, then its twin,
    as for ``convergence_tables``."""
    pairs = [(z, w) for (z, _), (w, _) in _ladder(
        params, scheme, grid_kind, levels, alpha, left_bc, on_result,
        halved=True)]
    rows = _rows_from_values(levels, [richardson(z, w) for z, w in pairs])
    return [ExtrapolationRow(r.intervals, z, w, *astuple(r)[1:])
            for r, (z, w) in zip(rows, pairs)]


# --------------------------------------------------------------------------
# Reference oracles
# --------------------------------------------------------------------------

def ode_oracle(params: ModelParams, h_star: float,
               dt_ref: float) -> tuple[float, float]:
    """Integrate the spatially constant reduction with fixed-step RK4.

    u' = b - a e^(u-v), v' = c (1 - e^(v-u)), u(0) = v(0) = gamma*h_star.
    The result is accurate to O(dt_ref^4) and serves as an independent
    reference for constant-data solver runs.  The horizon is cut into
    steps as ``time_grid_from_space`` cuts it for an explicit dt on a
    one-interval grid, so a ``dt_ref`` that it refuses (not > 0 and
    finite, past the horizon, or needing more than ``MAX_CELLS`` steps)
    is refused before the first.  A step that leaves the float
    range is an OracleConvergenceError naming it.
    """
    dc = derive_constants(params)
    T = params.horizon
    n = _checked_steps(1, T, dt_ref)
    dt = T / n
    u = v = params.gamma * h_star
    if not math.isfinite(u):
        raise ValidationError("gamma * h_star must be finite")

    def f(uu, vv):
        return dc.b - dc.a * math.exp(uu - vv), dc.c * (1.0 - math.exp(vv - uu))

    for j in range(n):
        try:
            k1u, k1v = f(u, v)
            k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
            k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
            k4u, k4v = f(u + dt * k3u, v + dt * k3v)
            u += dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
            v += dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        except OverflowError:  # math.exp past the float range
            u = math.nan
        if not (math.isfinite(u) and math.isfinite(v)):
            raise OracleConvergenceError(f"RK4 step {j} left the float range")
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
    approximates.  After the size limit, it starts as ``solve_forward``
    and ``verify`` do (``_start``), so the three refuse alike: parameters
    without constants first, then a non-finite level-0 state, then what
    the plan refuses (a time grid that overshoots the horizon, and
    diffusion rows it cannot represent as the same SolveFailure at step
    0).  A level whose residual is not finite, or that does not reach
    ``ORACLE_TOL`` in ``ORACLE_MAX_ITER`` iterations, is an
    OracleConvergenceError.
    """
    if grid.intervals > 64 or tg.steps > 128:
        raise ValidationError("implicit oracle is restricted to I <= 64, J <= 128")
    (state,), (plan,) = _start(params, grid, tg, (payoff,), (config,))
    config, dc = plan.config, plan.dc
    a_lo, b_up = plan.rows.lower, plan.rows.upper
    dt = tg.dt
    # Edges without the natural rule hold a set value: no residual there
    # and an identity row in the Newton system.
    fixed = [i for i, rule in ((0, config.left_bc), (-1, config.right_bc))
             if rule != NATURAL]
    lo, up = np.pad(a_lo, 1), np.pad(b_up, 1)  # zero at both edges
    coupling = np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    with np.errstate(all="ignore"):  # a stalled residual is refused
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
                # Natural edges, without diffusion, follow the reduced
                # reaction ODE, implicitly.
                diffusion = np.pad(a_lo * uu[:-2] - (a_lo + b_up) * uu[1:-1]
                                   + b_up * uu[2:], 1)
                ru = (uu - u_old) / dt - diffusion + e - dc.b
                ru[fixed] = 0.0
                rv = (vv - v_old) / dt + zz - dc.c
                # NaN in either half makes the max NaN
                return ru, rv, e, zz, np.abs((ru, rv)).max()

            ru, rv, e, zz, res = residual(un, vn)
            for _ in range(ORACLE_MAX_ITER):
                # no step lowers a residual that is not finite
                if res < ORACLE_TOL or not math.isfinite(res):
                    break
                jvv = 1.0 / dt + zz
                # Schur complement in U after eliminating the diagonal V-block.
                main = 1.0 / dt + e - e * zz / jvv + lo + up
                main[fixed] = 1.0
                rhs = -ru - e * rv / jvv
                rhs[fixed] = 0.0
                du = np.linalg.solve(np.diag(main) - coupling, rhs)
                dv = (-rv + zz * du) / jvv
                step = 1.0
                for _ in range(40):
                    u_try = un + step * du
                    v_try = vn + step * dv
                    trial = residual(u_try, v_try)
                    if trial[-1] < res or trial[-1] < ORACLE_TOL:
                        break
                    step *= 0.5
                un, vn = u_try, v_try
                ru, rv, e, zz, res = trial
            if not res < ORACLE_TOL:
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


def _scan(stream, checks) -> list[CheckResult]:
    """Fold ``checks`` over ``stream``, an iterable of state tuples (one
    state per run, all at one level), in a single pass.

    A check is ``(name, arrays, passes, largest)``: ``arrays(states)``
    gives the arrays whose first strict minimum over all levels, with its
    (level, node), is the check's worst value, graded by ``passes``.
    ``largest`` scans non-negative errors for the first strict maximum
    above 0 instead, so an exact match reports no location.  Only the
    current tuple is held, so a stream of live marches costs one level.
    """
    found = [(0.0 if largest else math.inf, None) for *_, largest in checks]
    for states in stream:
        for k, (_, arrays, _, largest) in enumerate(checks):
            for arr in arrays(states):
                node = int(arr.argmax() if largest else arr.argmin())
                value, worst = arr[node], found[k][0]
                if (value > worst) if largest else (value < worst):
                    found[k] = float(value), (states[0].step_index, node)
    return [CheckResult(name, passes(worst), worst, where)
            for (name, _, passes, _), (worst, where) in zip(checks, found)]


def _captured(name: str, runs) -> zip:
    """The level-by-level tuples of the trajectories of ``runs``, which
    must be captured on one grid and time partition."""
    if any(run.trajectory is None for run in runs):
        raise ValidationError(
            f"{name} audit needs a run with capture_trajectory=True")
    if any(not np.array_equal(r.plan.grid.nodes, runs[0].plan.grid.nodes)
           or r.plan.tg != runs[0].plan.tg for r in runs):
        raise ValidationError("runs must share the grid and time partition")
    return zip(*(r.trajectory for r in runs))


def _positivity(params: ModelParams, plan: StepPlan):
    """Transformed prices (p and q) of the first run."""
    return ("positivity", lambda st: to_prices(
        st[0].u, st[0].v, params.horizon - st[0].step_index * plan.tg.dt,
        params, plan.dc), lambda worst: worst >= POSITIVITY_TOL, False)


def _comparison(name: str, upper: int, lower: int):
    """Run ``upper`` minus run ``lower``, in U and V."""
    return (name, lambda st: (st[upper].u - st[lower].u,
                              st[upper].v - st[lower].v),
            lambda worst: worst >= COMPARISON_TOL, False)


def _translation(delta: float, base: int, shifted: int):
    """Distance of run ``shifted`` from run ``base`` moved by ``delta``."""
    return ("translation",
            lambda st: (np.abs(st[shifted].u - st[base].u - delta),
                        np.abs(st[shifted].v - st[base].v - delta)),
            lambda worst: worst <= TRANSLATION_TOL, True)


def audit_positivity(run: SolveResult) -> CheckResult:
    """Worst transformed price (p or q) over the whole space-time grid."""
    return _scan(_captured("positivity", [run]),
                 [_positivity(run.params, run.plan)])[0]


def audit_comparison(upper: SolveResult, lower: SolveResult) -> CheckResult:
    """Discrete comparison: the run with larger data stays above pointwise."""
    return _scan(_captured("comparison", [upper, lower]),
                 [_comparison("comparison", 0, 1)])[0]


def audit_translation(base: SolveResult, shifted: SolveResult,
                      delta: float) -> CheckResult:
    """Shifting data by delta must shift the solution by exactly delta."""
    if not math.isfinite(delta):
        raise ValidationError("translation delta must be finite")
    return _scan(_captured("translation", [base, shifted]),
                 [_translation(delta, 0, 1)])[0]


def _diagnostic_checks(d: SolveDiagnostics) -> list[CheckResult]:
    """The M-matrix pattern and the sup-norm bound of one run."""
    return [CheckResult("m_matrix", d.m_matrix_ok, d.min_d, (d.min_d_step,)),
            CheckResult("sup_bound", d.bound_margin >= SUP_BOUND_TOL,
                        d.bound_margin, (d.bound_margin_step,))]


def audit_m_matrix(run: SolveResult) -> CheckResult:
    return _diagnostic_checks(run.diagnostics)[0]


def audit_sup_bound(run: SolveResult) -> CheckResult:
    return _diagnostic_checks(run.diagnostics)[1]


def verify(params: ModelParams, grid: SpatialGrid, tg: TimeGrid,
           config: SchemeConfig | None = None) -> AuditReport:
    """The audit suite that ``liqshock verify`` prints.

    Three runs on one grid (call payoff, call + 0.1, zero payoff) march
    in lockstep under ``config`` (``None`` is the default
    ``SchemeConfig()``, as for ``solve_forward``).  Each run derives its
    Dirichlet edge rules from the call run's rule phi: the call run keeps
    phi, the lifted run gets
    phi + 0.1 gamma with its data, and the zero run holds the edge at its
    own level-0 value, 0.  Runs with equal configs share one ``StepPlan``
    and so its rows (for ``imex_linear`` also their one elimination):
    with natural or held edges all three do, and with a Dirichlet edge
    the lifted and the zero run get a plan each.  One
    ``_scan`` folds positivity of the call run, comparison of each
    ordered pair and translation by 0.1 gamma as the levels stream past,
    so no trajectory is kept; the M-matrix pattern and the sup-norm bound
    of the call run follow from its diagnostics.  The restriction maximum
    is taken over all three runs, and the report is its one record: a
    violation raises no warning.  The runs start as ``solve_forward``'s
    does (``_start``: the constants, the three level-0 states, then the
    plans), so anything either refuses fails, with the same error, before
    any run marches.  Failed checks are reported
    as data, never raised; a run that breaks down raises its SolveFailure
    at the earliest failing step, carrying the diagnostics of that run
    alone, without a numpy warning.
    """
    config, shift = config or SchemeConfig(), 0.1 * params.gamma
    # (payoff, the run's rule on a Dirichlet edge where the call run has phi)
    payoffs, edges = zip((payoff_call, lambda phi: phi),
                         (lambda s, k: payoff_call(s, k) + 0.1,
                          lambda phi: lambda tau: phi(tau) + shift),
                         (payoff_zero, lambda phi: None))
    # a callable field of the config is a Dirichlet edge
    configs = [replace(config, **{side: edge(phi) for side, phi in
                                  vars(config).items() if callable(phi)})
               for edge in edges]
    firsts, plans = _start(params, grid, tg, payoffs, configs)
    diags = [SolveDiagnostics() for _ in plans]
    marches = list(map(_march, firsts, plans, diags))
    with np.errstate(all="ignore"):  # a non-finite level is refused
        checks = _scan(zip(*marches), [
            _positivity(params, plans[0]),
            _comparison("comparison(h+0.1)", 1, 0),
            _comparison("comparison(call vs 0)", 0, 2),
            _translation(shift, 0, 1)])
    return AuditReport(checks=checks + _diagnostic_checks(diags[0]),
                       restriction_max=max(d.restriction_max for d in diags))
