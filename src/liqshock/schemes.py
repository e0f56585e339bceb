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

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import LiqshockError, SolveFailure, ValidationError
from .mesh import SpatialGrid, TimeGrid
from .model import DerivedConstants, ModelParams, derive_constants, payoff_call
from .tridiag import TridiagonalSystem, check_m_matrix, solve, stability_bound

__all__ = [
    "NATURAL",
    "GridState",
    "SchemeConfig",
    "SolveDiagnostics",
    "SolveResult",
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
        if self.scheme not in ("imex_linear", "imex_linearized"):
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

    @property
    def restriction_ok(self) -> bool:
        return self.restriction_max <= RESTRICTION_SLACK


@dataclass(frozen=True)
class SolveResult:
    """Final state of a forward march plus context and diagnostics."""

    final_state: GridState
    trajectory: list[GridState] | None
    diagnostics: SolveDiagnostics
    params: ModelParams
    grid: SpatialGrid
    tg: TimeGrid
    config: SchemeConfig
    dc: DerivedConstants


def initial_state(grid: SpatialGrid, params: ModelParams,
                  payoff=payoff_call) -> GridState:
    """Level-0 state U = V = gamma * payoff(S)."""
    h = np.asarray(payoff(grid.nodes, params.strike), dtype=float)
    u0 = params.gamma * h
    return GridState(step_index=0, u=u0, v=u0.copy())


def _interior_coefficients(grid: SpatialGrid, sigma: float):
    """Off-diagonal weights of the implicit second difference.

    Uniform grids use the exact spacing (s_max - s_min)/I; non-uniform
    grids use the standard 3-point formula on spacings h_i = S_i - S_{i-1},
    which keeps both weights positive (the sign pattern the maximum
    principle needs).
    """
    s = grid.nodes
    if grid.uniform:
        ds = grid.min_spacing()
        a = 0.5 * sigma ** 2 * s[1:-1] ** 2 / ds ** 2
        return a, a.copy()
    h = grid.spacings()
    hl, hr = h[:-1], h[1:]
    ssq = sigma ** 2 * s[1:-1] ** 2
    return ssq / (hl * (hl + hr)), ssq / (hr * (hl + hr))


def _natural_update(u_node: float, v_node: float, dc: DerivedConstants,
                    dt: float) -> float:
    return u_node - dt * (dc.a * math.exp(u_node - v_node) - dc.b)


def _boundary_value(rule, node: int, state: GridState, dc: DerivedConstants,
                    tg: TimeGrid) -> float:
    """Boundary value of U at level j+1 on one edge.

    A callable rule is a Dirichlet value evaluated at tau_{j+1}; ``None``
    keeps the level-j value; the natural rule advances the reduced ODE
    u' = b - a e^(u-v) one explicit Euler step, which is the appropriate
    treatment at S = 0 where the diffusion degenerates.
    """
    if rule is None:
        return float(state.u[node])
    if rule == NATURAL:
        return _natural_update(float(state.u[node]), float(state.v[node]),
                               dc, tg.dt)
    tau_next = (state.step_index + 1) * tg.dt
    return float(rule(tau_next))


def _system(lower, diag, upper, rhs, state: GridState, dc: DerivedConstants,
            tg: TimeGrid, config: SchemeConfig) -> TridiagonalSystem:
    """Interior rows closed by the level-(j+1) values of both edges."""
    return TridiagonalSystem(
        lower=lower, diag=diag, upper=upper, rhs=rhs,
        left_value=_boundary_value(config.left_bc, 0, state, dc, tg),
        right_value=_boundary_value(config.right_bc, -1, state, dc, tg),
    )


def restriction_ratio(state: GridState, dc: DerivedConstants,
                      tg: TimeGrid) -> float:
    """Max of dt*c*e^(max(V-U)) and dt*a*e^(max(U-V)).

    Values above 1 void the sign conditions behind the discrete comparison
    principle for the explicit reaction update.
    """
    spread_vu = float(np.max(state.v - state.u))
    spread_uv = float(np.max(state.u - state.v))
    return tg.dt * max(dc.c * math.exp(spread_vu), dc.a * math.exp(spread_uv))


def assemble_scheme1(state: GridState, grid: SpatialGrid, tg: TimeGrid,
                     dc: DerivedConstants, config: SchemeConfig) -> TridiagonalSystem:
    """Linear IMEX rows: implicit diffusion, level-j reaction in the load."""
    a_lo, b_up = _interior_coefficients(grid, dc.sigma)
    u, v = state.u, state.v
    diag = 1.0 / tg.dt + a_lo + b_up
    rhs = u[1:-1] / tg.dt - dc.a * np.exp(u[1:-1] - v[1:-1]) + dc.b
    return _system(a_lo, diag, b_up, rhs, state, dc, tg, config)


def assemble_scheme2(state: GridState, grid: SpatialGrid, tg: TimeGrid,
                     dc: DerivedConstants, config: SchemeConfig
                     ) -> tuple[TridiagonalSystem, tuple[np.ndarray, ...]]:
    """Linearized rows with the V-block eliminated.

    With w = a e^(U-V) and z = c e^(V-U) at level j, the coupled rows are

        (1/dt + A + B + w) U_new - A U_l - B U_r - w V_new
            = U/dt - w (1 + V - U) + b,
        (1/dt + z) V_new - z U_new = V/dt - z (1 - V + U) + c,

    so eliminating V adds w*z/(1/dt + z) > -w to the U diagonal (net gain
    in domination) and the V relation doubles as the recovery formula
    V_new = (G - E U_new) / K, whose (K, E, G) are returned with the rows.
    """
    a_lo, b_up = _interior_coefficients(grid, dc.sigma)
    u, v = state.u, state.v
    dt = tg.dt
    w = dc.a * np.exp(u - v)
    z = dc.c * np.exp(v - u)
    k_hat = 1.0 / dt + z
    e_hat = -z
    g = v / dt - z * (1.0 - v + u) + dc.c
    f_hat = u[1:-1] / dt - w[1:-1] * (1.0 + v[1:-1] - u[1:-1]) + dc.b
    wi = w[1:-1]
    diag = 1.0 / dt + a_lo + b_up + wi - wi * z[1:-1] / k_hat[1:-1]
    rhs = f_hat + wi / k_hat[1:-1] * g[1:-1]
    return (_system(a_lo, diag, b_up, rhs, state, dc, tg, config),
            (k_hat, e_hat, g))


def step(state: GridState, grid: SpatialGrid, tg: TimeGrid,
         dc: DerivedConstants,
         config: SchemeConfig) -> tuple[GridState, TridiagonalSystem]:
    """Advance one time level with ``config.scheme``.

    Returns the new state and the tridiagonal system solved for its U.
    ``imex_linear`` advances V pointwise by the explicit rule;
    ``imex_linearized`` recovers V at every node, boundaries included,
    from the eliminated one-point relation.
    """
    if config.scheme == "imex_linear":
        sys = assemble_scheme1(state, grid, tg, dc, config)
        u_new = solve(sys)
        v_new = state.v - tg.dt * dc.c * (np.exp(state.v - state.u) - 1.0)
    else:
        sys, (k_hat, e_hat, g) = assemble_scheme2(state, grid, tg, dc, config)
        u_new = solve(sys)
        v_new = (g - e_hat * u_new) / k_hat
    return GridState(state.step_index + 1, u_new, v_new), sys


def solve_forward(params: ModelParams, grid: SpatialGrid, tg: TimeGrid,
                  config: SchemeConfig | None = None, payoff=payoff_call,
                  capture_trajectory: bool = False) -> SolveResult:
    """March the scheme from the payoff level to tau = T.

    Returns the final state together with per-run diagnostics (worst
    M-matrix margin, worst sup-norm bound margin, worst reaction-step
    restriction ratio).  A restriction ratio above 1 warns.  Numerical
    failures, overflow included, are re-raised as SolveFailure carrying the
    failing step index.
    """
    config = config or SchemeConfig()
    dc = derive_constants(params)
    state = initial_state(grid, params, payoff)
    trajectory = [state] if capture_trajectory else None
    diag = SolveDiagnostics()
    for j in range(tg.steps):
        try:
            ratio = restriction_ratio(state, dc, tg)
            if ratio > diag.restriction_max:
                diag.restriction_max = ratio
                diag.restriction_max_step = j
            if ratio > RESTRICTION_SLACK:
                warnings.warn("reaction time-step restriction violated; "
                              "positivity of the march is no longer "
                              "guaranteed", RuntimeWarning, stacklevel=2)
            state, sys = step(state, grid, tg, dc, config)
        except (LiqshockError, OverflowError) as err:
            # math.exp (restriction ratio, natural edge) overflows on a
            # large spread |U - V|; that, too, is a breakdown of this step.
            raise SolveFailure(j, str(err)) from err
        report = check_m_matrix(sys)
        diag.solves += 1
        diag.m_matrix_ok = diag.m_matrix_ok and report.satisfied
        if report.min_d < diag.min_d:
            diag.min_d = report.min_d
            diag.min_d_step = j
        margin = stability_bound(sys) - float(np.abs(state.u).max())
        if margin < diag.bound_margin:
            diag.bound_margin = margin
            diag.bound_margin_step = j
        if capture_trajectory:
            trajectory.append(state)
    return SolveResult(final_state=state, trajectory=trajectory,
                       diagnostics=diag, params=params, grid=grid, tg=tg,
                       config=config, dc=dc)
