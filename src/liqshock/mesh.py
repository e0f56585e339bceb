"""Spatial grids (uniform and sinh-stretched) and the time partition."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
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


def _is_count(n, least: int) -> bool:
    """Whether n is a whole number (int or numpy integer) >= least."""
    try:
        return operator.index(n) >= least
    except TypeError:
        return False


def _check_intervals(intervals):
    if not _is_count(intervals, 2):
        raise ValidationError("need a whole number of at least 2 intervals")
    if intervals > MAX_CELLS:
        raise ValidationError(f"more than MAX_CELLS = {MAX_CELLS} intervals")


def _checked_nodes(nodes: np.ndarray) -> np.ndarray:
    """``nodes``, frozen, once they are finite and strictly increasing."""
    # strictly increasing (a NaN fails a comparison) between finite ends
    # is finite throughout
    if not (math.isfinite(nodes[0]) and math.isfinite(nodes[-1])
            and (nodes[1:] > nodes[:-1]).all()):
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
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValidationError("grid needs at least 3 nodes")
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
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")
        if not _is_count(self.steps, 1):
            raise ValidationError("steps must be a whole number >= 1")
        object.__setattr__(self, "steps", operator.index(self.steps))

    def halved(self) -> "TimeGrid":
        """Same horizon with twice the steps (for temporal extrapolation)."""
        return TimeGrid(dt=self.dt / 2.0, steps=2 * self.steps)


def uniform_grid(s_min: float, s_max: float, intervals: int) -> SpatialGrid:
    """Equally spaced grid with the given number of intervals (>= 2)."""
    _check_intervals(intervals)
    if not s_min < s_max:
        raise ValidationError("s_min must be < s_max")
    # linspace of its own ends, so uniform without SpatialGrid's comparison
    nodes = np.linspace(s_min, s_max, intervals + 1)
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
    _check_intervals(intervals)
    if not 0 < alpha < math.inf:  # also rejects NaN
        raise ValidationError("alpha must be > 0 and finite")
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
    horizon; more than MAX_CELLS cells in all are rejected."""
    # capped, so that an infinite ratio never reaches ceil
    steps = max(1, math.ceil(min(horizon / dt * (1 - _SNAP_RTOL), MAX_CELLS)))
    _check_cells(intervals, steps)
    return steps


def time_grid_from_space(grid: SpatialGrid, horizon: float,
                         rule: str | float = HALF_MIN_SPACING) -> TimeGrid:
    """Build the time partition coupled to the spatial resolution.

    rule = "half_min_spacing" takes dt = min_i(S_i - S_{i-1}) / 2; a float
    is taken as an explicit candidate dt.  Either way the candidate is
    shrunk so an integer number of steps covers the horizon exactly.
    """
    if not 0 < horizon < math.inf:  # also rejects NaN
        raise ValidationError("horizon must be > 0 and finite")
    if rule == HALF_MIN_SPACING:
        candidate = grid.min_spacing() / 2.0
    elif isinstance(rule, str):
        raise ValidationError(f"unknown time step rule {rule!r}")
    else:
        candidate = float(rule)
        if not candidate > 0:  # also rejects NaN
            raise ValidationError("explicit dt must be > 0")
        if candidate > horizon:
            raise ValidationError("explicit dt exceeds the horizon")
    steps = _checked_steps(grid.intervals, horizon, candidate)
    return TimeGrid(dt=horizon / steps, steps=steps)
