"""Spatial grids (uniform and sinh-stretched) and the time partition."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _raise_first
from .tridiag import _unchecked

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "uniform_grid",
    "tavella_randall_grid",
    "time_grid_from_space",
    "HALF_MIN_SPACING",
]

HALF_MIN_SPACING = "half_min_spacing"

# Relative guard when deciding whether a candidate time step divides the
# horizon: node spacings computed in floating point miss exact division
# by a few ulp, which must not bump the step count.
_SNAP_RTOL = 1e-9


# Largest intervals x steps of a run (so also the most intervals of a
# grid), checked before anything is allocated.  A guard, not a setting.
MAX_CELLS = 10**7


def _whole(n) -> int | None:
    """n as an int when it is a whole number (int or numpy integer)."""
    try:
        return operator.index(n)
    except TypeError:
        return None


def _size_problems(intervals=None, alpha=None, dt=None, horizon=math.inf):
    """First failed check of each size of a run that is given: a grid's
    intervals, the Tavella-Randall ``alpha`` and a step ``dt`` (which
    must not exceed the horizon), as ``model._param_problems`` lists the
    parameters'."""
    problems = {}
    if intervals is not None:
        n = _whole(intervals)
        if n is None:
            problems["intervals"] = "must be a whole number"
        elif n < 2:
            problems["intervals"] = "must be >= 2"
        elif n > MAX_CELLS:
            problems["intervals"] = f"must be <= {MAX_CELLS}"
    if alpha is not None and not 0 < alpha < math.inf:  # also NaN
        problems["alpha"] = "must be > 0 and finite"
    if dt is not None:
        if not 0 < dt < math.inf:
            problems["dt"] = "must be > 0 and finite"
        elif dt > horizon:
            problems["dt"] = "must not exceed the horizon"
    return problems


def _checked_nodes(nodes: np.ndarray) -> np.ndarray:
    """``nodes``, frozen, once they are finite and strictly increasing."""
    # strictly increasing (a NaN fails a comparison) between finite ends
    # is finite throughout
    if not (math.isfinite(nodes[0]) and math.isfinite(nodes[-1])
            and np.logical_and.reduce(nodes[1:] > nodes[:-1])):
        raise ValidationError(
            "grid nodes must be finite and strictly increasing")
    nodes.setflags(write=False)
    return nodes


@dataclass(frozen=True)
class SpatialGrid:
    """Strictly increasing price nodes S_0 .. S_I.

    The nodes are kept read-only: an array passed in is copied unless it
    is already a read-only float64 array owning its data (as the nodes of
    another grid are), so the caller's array stays writable.
    """

    nodes: np.ndarray
    uniform: bool = field(init=False)  # nodes are linspace of their ends

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.flags.writeable or not nodes.flags.owndata:
            nodes = nodes.copy()
        if nodes.ndim != 1:
            raise ValidationError("grid nodes must be one-dimensional")
        _raise_first(_size_problems(nodes.size - 1))
        object.__setattr__(self, "nodes", _checked_nodes(nodes))
        object.__setattr__(self, "uniform", np.array_equal(
            nodes, np.linspace(nodes[0], nodes[-1], nodes.size)))

    @property
    def intervals(self) -> int:
        return self.nodes.size - 1

    def min_spacing(self) -> float:
        if self.uniform:
            # exact value, immune to linspace roundoff
            return float(self.nodes[-1] - self.nodes[0]) / self.intervals
        return float(np.diff(self.nodes).min())


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T]: steps J >= 1 and step size dt with
    J*dt = T.  ``steps`` is kept as a Python int, so a numpy integer given
    for it cannot wrap the products it enters (``MAX_CELLS``'s cap)."""

    dt: float
    steps: int

    def __post_init__(self):
        _raise_first(_size_problems(dt=self.dt))
        steps = _whole(self.steps)
        if steps is None or steps < 1:
            raise ValidationError("steps must be a whole number >= 1")
        object.__setattr__(self, "steps", steps)


def uniform_grid(s_min: float, s_max: float, intervals: int) -> SpatialGrid:
    """Equally spaced grid with the given number of intervals (>= 2)."""
    _raise_first(_size_problems(intervals))
    if not s_min < s_max:
        raise ValidationError("s_min must be < s_max")
    # np.linspace(s_min, s_max, intervals + 1) without its Python wrapper:
    # one float64 operation for each of linspace's, so the same bits, and
    # uniform without SpatialGrid's comparison.  What linspace makes of an
    # infinite span, or of a spacing that rounds to 0, is refused below.
    # The last node, whose product alone could overflow and warn, is
    # s_max, set last as linspace sets it.
    s_min, s_max = float(s_min), float(s_max)
    span = s_max - s_min
    nodes = np.arange(intervals + 1.0)
    nodes[-1] = 0.0
    if span < math.inf:
        nodes *= span / intervals
    nodes += s_min
    nodes[-1] = s_max
    return _unchecked(SpatialGrid, nodes=_checked_nodes(nodes), uniform=True)


def tavella_randall_grid(s_min: float, s_max: float, strike: float,
                         alpha: float, intervals: int) -> SpatialGrid:
    """Sinh-stretched grid concentrating nodes near the strike.

    Nodes follow S_i = K + alpha*sinh(c2*i/I + c1*(1 - i/I)) with
    c1 = asinh((s_min-K)/alpha) and c2 = asinh((s_max-K)/alpha), so the
    endpoints map back to s_min/s_max exactly and the local spacing is
    smallest where the argument of sinh crosses zero, i.e. at the strike.
    Large alpha flattens the stretch toward the uniform grid.
    """
    _raise_first(_size_problems(intervals, alpha))
    if not s_min < strike < s_max:
        raise ValidationError("requires s_min < strike < s_max")
    c1 = math.asinh((s_min - strike) / alpha)
    c2 = math.asinh((s_max - strike) / alpha)
    xi = np.arange(intervals + 1) / intervals
    with np.errstate(all="ignore"):  # SpatialGrid refuses non-finite nodes
        nodes = strike + alpha * np.sinh(c2 * xi + c1 * (1.0 - xi))
    nodes[0] = s_min
    nodes[-1] = s_max
    return SpatialGrid(nodes)


def _check_cells(intervals: int, steps: int):
    """Refuse a run of more than MAX_CELLS cells in all."""
    if intervals * steps > MAX_CELLS:
        raise ValidationError(f"intervals x steps > MAX_CELLS = {MAX_CELLS}")


def _checked_steps(intervals: int, horizon: float, dt: float) -> int:
    """Fewest steps of at most ``dt`` (to the snap tolerance) that cover the
    horizon; a ``dt`` that ``_size_problems`` refuses, or more than
    MAX_CELLS cells in all, are rejected."""
    _raise_first(_size_problems(dt=dt, horizon=horizon))
    # capped past MAX_CELLS, so that an infinite ratio never reaches ceil
    # and a capped count is refused even on one interval
    steps = max(1, math.ceil(min(horizon / dt * (1 - _SNAP_RTOL),
                                 MAX_CELLS + 1)))
    _check_cells(intervals, steps)
    return steps


def time_grid_from_space(grid: SpatialGrid, horizon: float,
                         rule: str | float = HALF_MIN_SPACING) -> TimeGrid:
    """Build the time partition coupled to the spatial resolution.

    rule = "half_min_spacing" takes dt = min_i(S_i - S_{i-1}) / 2, at most
    the horizon; a float is taken as an explicit candidate dt, which
    ``_size_problems`` checks.  Either way the candidate is shrunk so an
    integer number of steps covers the horizon exactly.
    """
    if not 0 < horizon < math.inf:  # also rejects NaN
        raise ValidationError("horizon must be > 0 and finite")
    if rule == HALF_MIN_SPACING:
        # a spacing past the horizon takes one step, as the horizon does
        candidate = min(grid.min_spacing() / 2.0, horizon)
    elif isinstance(rule, str):
        raise ValidationError(f"unknown time step rule {rule!r}")
    else:
        candidate = float(rule)
    # a Python int >= 1 of steps, so horizon / steps is a positive finite
    # dt: TimeGrid's checks cannot fail
    steps = _checked_steps(grid.intervals, horizon, candidate)
    return _unchecked(TimeGrid, dt=horizon / steps, steps=steps)
