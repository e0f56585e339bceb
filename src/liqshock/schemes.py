"""IMEX time steppers for the coupled parabolic-ordinary system.

Two one-step marches advance (U, V) from time level j to j+1:

* ``imex_linear`` treats the diffusion of U implicitly and both reaction
  terms fully explicitly, giving a tridiagonal solve for U and a
  pointwise update for V.

* ``imex_linearized`` freezes the exponentials at level j through a
  first-order Taylor expansion, producing a coupled linear system in
  (U, V) whose V-block is diagonal; V is eliminated, U solves a reduced
  tridiagonal system with strengthened diagonal domination, and V is
  recovered from the one-point relation afterwards.

Both steppers share the boundary treatment: the right edge holds its
level-0 payoff value unless given a Dirichlet value, while the left edge
(where the diffusion degenerates) either carries a Dirichlet value or
follows the reduced reaction ODE one explicit Euler step at a time.
"""

from __future__ import annotations

import inspect
import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

import numpy as np

from .errors import (LiqshockError, NumericalError, SolveFailure,
                     ValidationError)
from .mesh import SpatialGrid, TimeGrid, _check_cells
from .model import (DerivedConstants, ModelParams, _in_horizon,
                    derive_constants, payoff_call)
from .tridiag import (TridiagonalRows, TridiagonalSystem, _unchecked,
                      check_m_matrix, solve, stability_bound)

__all__ = [
    "NATURAL",
    "GridState",
    "SchemeConfig",
    "SolveDiagnostics",
    "SolveResult",
    "StepPlan",
    "initial_state",
    "assemble_scheme1",
    "assemble_scheme2",
    "step",
    "restriction_ratio",
    "solve_forward",
]

NATURAL = "natural"

BoundaryRule = Union[str, Callable[[float], float], None]

# Largest reaction restriction ratio that still counts as holding; the
# slack absorbs roundoff in a ratio that is exactly 1.
RESTRICTION_SLACK = 1.0 + 1e-12

# Library name of each scheme -> its word in config files and on the CLI.
SCHEMES = {"imex_linear": "linear", "imex_linearized": "linearized"}


@dataclass(frozen=True)
class GridState:
    """Paired grid functions (U, V) at one time level."""

    step_index: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != v.shape or u.ndim != 1:
            raise ValidationError("u and v must be 1-d arrays of equal length")
        if self.step_index < 0:
            raise ValidationError("step_index must be >= 0")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValidationError("non-finite entries in grid state")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection and boundary rules.

    ``left_bc``/``right_bc`` accept either the string ``"natural"`` (march
    the node by the reduced reaction ODE) or a callable phi(tau) providing
    a Dirichlet value.  ``None`` holds the edge at its current value, so
    the default right edge keeps its level-0 value gamma * payoff(s_max).
    """

    scheme: str = "imex_linear"
    left_bc: BoundaryRule = NATURAL
    right_bc: BoundaryRule = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        for side, bc in (("left", self.left_bc), ("right", self.right_bc)):
            if bc is None or bc == NATURAL or callable(bc):
                continue
            raise ValidationError(f"{side}_bc must be 'natural' or a callable")


@dataclass
class SolveDiagnostics:
    """Per-run aggregates over every tridiagonal solve and reaction step."""

    solves: int = 0
    m_matrix_ok: bool = True
    min_d: float = math.inf
    min_d_step: int = -1
    bound_margin: float = math.inf
    bound_margin_step: int = -1
    restriction_max: float = 0.0
    restriction_max_step: int = -1


def initial_state(grid: SpatialGrid, params: ModelParams,
                  payoff=payoff_call) -> GridState:
    """Level-0 state U = V = gamma * payoff(S).

    A payoff that does not give one value per node, or a state that is
    not finite, is a ValidationError, raised without a numpy warning.
    Every later level of a march has the shape of this one.
    """
    h = np.asarray(payoff(grid.nodes, params.strike), dtype=float)
    if h.shape != grid.nodes.shape:
        raise ValidationError("payoff must give one value per grid node")
    # rounding is monotone: a finite gamma max|h| bounds every gamma h_i
    if not math.isfinite(params.gamma * float(np.maximum.reduce(np.abs(h)))):
        raise ValidationError("non-finite entries in grid state")
    u0 = params.gamma * h
    return _unchecked(GridState, step_index=0, u=u0, v=u0.copy())


@dataclass(frozen=True)
class StepPlan:
    """Per-run inputs and the implicit-diffusion rows worked out from them.

    ``rows.lower``/``rows.upper`` hold the weights of the implicit second
    difference and ``rows.diag = 1/dt + lower + upper``.  Uniform grids use
    the exact spacing (s_max - s_min)/I, others the 3-point formula on
    h_i = S_i - S_{i-1}, which keeps both weights positive.  A plan checks
    itself when built, refusing in this order a time grid whose last
    level lies past the horizon by more than ``evaluate_f`` forgives (one
    that stops short is legal), more than ``MAX_CELLS`` intervals x steps
    (ValidationError both), and rows that cannot be represented (an inf or
    NaN anywhere, say from nodes whose square overflows) as SolveFailure
    at step 0, without a numpy warning.  Every run marched on one plan
    shares its rows, built once per plan, unchecked, from the arrays just
    worked out for them, which the rows own and keep read-only; on a
    uniform grid A and B are one array.  They are the whole
    ``imex_linear`` rows, so every level of such runs shares them, and
    with them one elimination (worked out by the first ``step`` that
    solves them) and one domination; ``imex_linearized`` derives each
    level's rows from them.  The plan also
    keeps dt, 1/dt, a, b, c, dt*c and 1.0 as read-only 0-d float64 arrays,
    which every level's numpy calls take in place of the Python floats:
    numpy charges extra to take in a Python-float operand, and the 0-d
    operand rounds each operation to the same bits.
    """

    grid: SpatialGrid
    tg: TimeGrid
    dc: DerivedConstants
    config: SchemeConfig
    rows: TridiagonalRows = field(init=False, repr=False, compare=False)
    _consts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        T = self.dc.horizon
        if not _in_horizon(T - self.tg.steps * self.tg.dt, T):
            raise ValidationError(f"{self.tg.steps} steps of dt={self.tg.dt} "
                                  f"overshoot the horizon {T}")
        _check_cells(self.grid.intervals, self.tg.steps)
        # numpy scalars: their overflow gives inf where a Python float raises
        s, sigma = self.grid.nodes, np.float64(self.dc.sigma)
        with np.errstate(all="ignore"):  # a non-finite row is refused below
            if self.grid.uniform:
                ds = np.float64(self.grid.min_spacing())
                lower = upper = 0.5 * sigma ** 2 * s[1:-1] ** 2 / ds ** 2
            else:
                hl, hr = np.diff(s[:-1]), np.diff(s[1:])
                ssq = sigma ** 2 * s[1:-1] ** 2
                lower, upper = ssq / (hl * (hl + hr)), ssq / (hr * (hl + hr))
            diag = 1.0 / self.tg.dt + lower + upper
        # A and B are >= 0 or NaN, so C = 1/dt + A + B is positive or not
        # finite, and a finite greatest C (NaN propagates) means all are
        if not math.isfinite(np.maximum.reduce(diag)):
            raise SolveFailure(0, "non-finite diffusion rows")
        # 1-d float64 arrays of one length just made, as TridiagonalRows
        # would keep them, frozen in place
        for arr in (lower, diag, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "rows", _unchecked(
            TridiagonalRows, lower=lower, diag=diag, upper=upper))
        dt, dc = self.tg.dt, self.dc
        consts = np.array([dt, 1.0 / dt, dc.a, dc.b, dc.c, dt * dc.c, 1.0],
                          dtype=float)
        consts.setflags(write=False)  # and so each 0-d view of it
        object.__setattr__(self, "_consts",
                           tuple(consts[i, ...] for i in range(consts.size)))


@dataclass(frozen=True)
class SolveResult:
    """Final state of a forward march, its diagnostics and parameters, and
    the ``StepPlan`` it marched on, the run's one record of its grid, time
    grid, constants, scheme and rows."""

    final_state: GridState
    trajectory: list[GridState] | None
    diagnostics: SolveDiagnostics
    params: ModelParams
    plan: StepPlan


def _edge(rule: BoundaryRule, node: int, state: GridState,
          plan: StepPlan) -> float:
    """Level-(j+1) value of U on the edge ``node`` (0 or -1): ``None``
    keeps the level-j value, a callable rule is a Dirichlet value at
    tau_{j+1}, and the natural rule advances the reduced ODE
    u' = b - a e^(u-v) one explicit Euler step (for S = 0, where the
    diffusion degenerates)."""
    u = float(state.u[node])
    if rule is None:
        return u
    if rule == NATURAL:
        dc = plan.dc
        return u - plan.tg.dt * (dc.a * math.exp(u - float(state.v[node]))
                                 - dc.b)
    return float(rule((state.step_index + 1) * plan.tg.dt))


def _system(rows: TridiagonalRows, rhs: np.ndarray, state: GridState,
            plan: StepPlan) -> TridiagonalSystem:
    """The level's system, built unchecked: ``rows``, the load ``rhs``
    just made for them and the two edge values."""
    config = plan.config
    return _unchecked(TridiagonalSystem, rows=rows, rhs=rhs,
                      left_value=_edge(config.left_bc, 0, state, plan),
                      right_value=_edge(config.right_bc, -1, state, plan))


def restriction_ratio(state: GridState, plan: StepPlan) -> float:
    """Max of dt*c*e^(max(V-U)) and dt*a*e^(max(U-V)).

    Values above 1 void the sign conditions behind the discrete comparison
    principle for the explicit reaction update.  A spread |U - V| past the
    range of exp is a NumericalError naming it.
    """
    # one difference serves both maxima: fl(v - u) is exactly -fl(u - v)
    diff = state.u - state.v
    vu, uv = -float(np.minimum.reduce(diff)), float(np.maximum.reduce(diff))
    dt, dc = plan.tg.dt, plan.dc
    try:
        return dt * max(dc.c * math.exp(vu), dc.a * math.exp(uv))
    except OverflowError as err:
        raise NumericalError(f"restriction ratio overflows at max |U - V| "
                             f"= {max(vu, uv):.3e}") from err


def _fit(state: GridState, plan: StepPlan):
    """Refuse a caller's state that does not fit the plan's grid, before
    any of its values meet the plan's rows."""
    if state.u.size != plan.grid.nodes.size:
        raise ValidationError("state must have one value per grid node")


def assemble_scheme1(state: GridState, plan: StepPlan) -> TridiagonalSystem:
    """Linear IMEX rows: implicit diffusion, level-j reaction in the load.
    A state that does not fit the plan's grid is a ValidationError."""
    _fit(state, plan)
    u, v = state.u[1:-1], state.v[1:-1]
    dt, _, a, b, *_ = plan._consts
    rhs = u / dt - a * np.exp(u - v) + b
    return _system(plan.rows, rhs, state, plan)


def assemble_scheme2(state: GridState, plan: StepPlan
                     ) -> tuple[TridiagonalSystem, tuple[np.ndarray, ...]]:
    """Linearized rows with the V-block eliminated.

    With w = a e^(U-V) and z = c e^(V-U) at level j, the coupled rows are

        (1/dt + A + B + w) U_new - A U_l - B U_r - w V_new
            = U/dt - w (1 + V - U) + b,
        (1/dt + z) V_new - z U_new = V/dt - z (1 - V + U) + c,

    so eliminating V adds w*z/(1/dt + z) > -w to the U diagonal (net gain
    in domination) and the V relation doubles as the recovery formula
    V_new = (G - E U_new) / K, whose (K, E, G) are returned with the rows.
    The rows are derived from the plan's with the new diagonal.  A state
    that does not fit the plan's grid is a ValidationError.
    """
    _fit(state, plan)
    u, v = state.u, state.v
    dt, inv_dt, a, b, c, _, one = plan._consts
    w = a * np.exp(u - v)
    z = c * np.exp(v - u)
    k_hat = inv_dt + z
    g = v / dt - z * (one - v + u) + c
    ui, vi, wi, ki, rows = u[1:-1], v[1:-1], w[1:-1], k_hat[1:-1], plan.rows
    f_hat = ui / dt - wi * (one + vi - ui) + b
    diag = rows.diag + wi - wi * z[1:-1] / ki
    rhs = f_hat + wi / ki * g[1:-1]
    return _system(rows._with_diag(diag), rhs, state, plan), (k_hat, -z, g)


def _advance(state: GridState, plan: StepPlan
             ) -> tuple[GridState, float, TridiagonalSystem]:
    """The level after ``state``, its max |U| and the system solved for
    its U (see ``step``).

    The new level is checked for what can go wrong with it, a non-finite
    U or V (ValidationError), and built unchecked from the arrays just
    made for it; max |U| serves that check and the march's bound margin.
    """
    if plan.config.scheme == "imex_linear":
        sys = assemble_scheme1(state, plan)
        plan.rows.elimination  # cached: every later level substitutes
        u_new = solve(sys)
        *_, dt_c, one = plan._consts
        v_new = state.v - dt_c * (np.exp(state.v - state.u) - one)
    else:
        sys, (k_hat, e_hat, g) = assemble_scheme2(state, plan)
        u_new = solve(sys)
        v_new = (g - e_hat * u_new) / k_hat
    # max |U| is finite only if U is
    u_max = float(np.maximum.reduce(np.abs(u_new)))
    if not (math.isfinite(u_max)
            and np.logical_and.reduce(np.isfinite(v_new))):
        raise ValidationError("non-finite entries in grid state")
    return _unchecked(GridState, step_index=state.step_index + 1, u=u_new,
                      v=v_new), u_max, sys


def step(state: GridState,
         plan: StepPlan) -> tuple[GridState, TridiagonalSystem]:
    """Advance one time level with ``plan.config.scheme``.

    Returns the new state and the tridiagonal system solved for its U,
    exactly the level and system the march makes from ``state``.
    ``imex_linear`` solves the plan's rows, eliminated once for the whole
    run, and advances V pointwise by the explicit rule;
    ``imex_linearized`` solves rows whose diagonal changes with the
    level, then recovers V at every node, boundaries included, from the
    eliminated one-point relation.  A state that does not fit the plan's
    grid, or a new level that is not finite, is a ValidationError, raised
    without a numpy warning: a spread |U - V| past the range of exp (which
    the march refuses before it steps, through the restriction ratio) is
    such a level, whether numpy or the natural edge's ``math.exp`` meets it.
    """
    try:
        with np.errstate(all="ignore"):  # a non-finite level is refused
            new, _, sys = _advance(state, plan)
    except OverflowError:
        raise ValidationError("non-finite entries in grid state") from None
    return new, sys


def _march(state: GridState, plan: StepPlan, diag: SolveDiagnostics
           ) -> Iterator[GridState]:
    """Yield the level-0 ``state``, then each new level's state of the
    run on ``plan`` to tau = T, which checked its time grid, cell count
    and rows when it was built.

    Each step's checks are folded into the caller's ``diag`` before its
    state is yielded, in this order: the reaction restriction ratio of
    the level stepped from (a ratio above 1 warns at the first frame
    outside liqshock, the caller of ``solve_forward``, ``verify`` or a
    ladder), the new level's finiteness, the M-matrix conditions once per
    distinct row set (once per run for ``imex_linear``, whose rows are the
    plan's at every level), and the sup-norm bound margin, which depends
    on the load and is checked at every level.  Each level comes from
    ``_advance``, as ``step``'s does, which checks its finiteness and
    hands back the max |U| that the bound margin reuses.  Numerical
    failures in the loop, a non-finite level, overflow and lost strict
    domination included, are re-raised as SolveFailure carrying the
    failing step index.
    """
    checked = level = None
    j = 0
    try:
        yield state
        for j in range(plan.tg.steps):
            ratio = restriction_ratio(state, plan)
            if ratio > diag.restriction_max:
                diag.restriction_max, diag.restriction_max_step = ratio, j
            if ratio > RESTRICTION_SLACK:
                if level is None:  # one caller resumes every level
                    frame, level = inspect.currentframe().f_back, 2
                    while frame and frame.f_globals.get(
                            "__name__", "").startswith("liqshock."):
                        frame, level = frame.f_back, level + 1
                warnings.warn("reaction time-step restriction violated; "
                              "positivity of the march is no longer "
                              "guaranteed", RuntimeWarning, stacklevel=level)
            state, u_max, sys = _advance(state, plan)
            if sys.rows is not checked:
                checked, ok = sys.rows, check_m_matrix(sys)
            margin = stability_bound(sys) - u_max
            diag.solves += 1
            diag.m_matrix_ok = diag.m_matrix_ok and ok
            if sys.rows.min_domination < diag.min_d:
                diag.min_d, diag.min_d_step = sys.rows.min_domination, j
            if margin < diag.bound_margin:
                diag.bound_margin, diag.bound_margin_step = margin, j
            yield state
    except (LiqshockError, OverflowError) as err:
        # the restriction ratio refuses a spread |U - V| past the range of
        # exp (so the natural edge's math.exp cannot overflow), a caller's
        # Dirichlet rule can raise OverflowError, and rows that lose strict
        # domination have no sup-norm bound; all are breakdowns of step j.
        raise SolveFailure(j, str(err)) from err


def _start(params: ModelParams, grid: SpatialGrid, tg: TimeGrid, payoffs,
           configs) -> tuple[list[GridState], list[StepPlan]]:
    """The level-0 state of each of ``payoffs`` and the plan of each of
    ``configs`` (``None`` is the default ``SchemeConfig()``), built in the
    one order in which every public run refuses its input: the constants,
    every level-0 state, then one ``StepPlan`` per distinct config, which
    runs with equal configs share."""
    dc = derive_constants(params)
    firsts = [initial_state(grid, params, payoff) for payoff in payoffs]
    plans = []
    for config in configs:
        config = config or SchemeConfig()
        shared = [plan for plan in plans if plan.config == config]
        plans.append(shared[0] if shared else StepPlan(grid, tg, dc, config))
    return firsts, plans


def solve_forward(params: ModelParams, grid: SpatialGrid, tg: TimeGrid,
                  config: SchemeConfig | None = None, payoff=payoff_call,
                  capture_trajectory: bool = False) -> SolveResult:
    """March the scheme from the payoff level to tau = T.

    Works out the constants, the level-0 state and then the run's
    ``StepPlan`` once (``_start``, as ``verify`` and ``implicit_oracle``
    do), then drains ``_march``, keeping every level with
    ``capture_trajectory`` and otherwise only the last.  Returns the
    final state together with the run's diagnostics (worst M-matrix
    margin, worst sup-norm bound margin, worst reaction-step restriction
    ratio, each with its step) and its plan, which carries the grid,
    time grid, constants and scheme config the run used.  A restriction
    ratio above 1 warns, pointing at the first caller outside liqshock.
    Parameters without constants, then a level-0 state the payoff cannot
    represent, then anything the plan refuses (a time grid that
    overshoots the horizon, more than ``MAX_CELLS`` cells, non-finite
    diffusion rows), fail before any level runs.  Numerical failures,
    overflow and lost strict domination included, are raised as
    SolveFailure carrying the failing step index (0 for the rows), without
    a numpy warning.
    """
    (first,), (plan,) = _start(params, grid, tg, (payoff,), (config,))
    diag = SolveDiagnostics()
    states = _march(first, plan, diag)
    with np.errstate(all="ignore"):  # a non-finite level is refused
        trajectory = list(states) if capture_trajectory else None
        final = (trajectory or deque(states, maxlen=1))[-1]
    return _unchecked(SolveResult, final_state=final, trajectory=trajectory,
                      diagnostics=diag, params=params, plan=plan)
