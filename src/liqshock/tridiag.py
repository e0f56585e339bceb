"""Canonical 3-point systems, their direct solution, and monotonicity checks.

A system stores the interior rows i = 1..N-1 of

    A_i y_{i-1} - C_i y_i + B_i y_{i+1} = -F_i,     y_0 = mu1,  y_N = mu2,

i.e. ``lower`` = A, ``diag`` = C, ``upper`` = B and ``rhs`` = F, each of
length N-1.  The boundary unknowns are eliminated into the first and last
rows during the solve, so the stored rows are exactly the ones the
monotonicity conditions (A_i > 0, B_i > 0, D_i = C_i - A_i - B_i >= 0)
speak about.

The direct solve comes in two parts: ``eliminate`` works out the pivots
and multipliers of the rows, which do not depend on the load, and
``solve`` substitutes one load through them.  Rows shared by many loads
(the ``imex_linear`` rows of a whole run) are eliminated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularSystemError, ValidationError

__all__ = [
    "TridiagonalSystem",
    "MMatrixReport",
    "eliminate",
    "solve",
    "check_m_matrix",
    "stability_bound",
]


@dataclass(frozen=True)
class TridiagonalSystem:
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    left_value: float
    right_value: float

    def __post_init__(self):
        arrays = {}
        for name in ("lower", "diag", "upper", "rhs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be one-dimensional")
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        n = arrays["diag"].size
        if n < 1:
            raise ValidationError("need at least one interior row")
        if any(a.size != n for a in arrays.values()):
            raise ValidationError("lower/diag/upper/rhs must share a length")

    @property
    def n_interior(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class MMatrixReport:
    """Outcome of the sign/domination check: off-diagonals positive and
    D_i = C_i - A_i - B_i >= 0 on every interior row."""

    satisfied: bool
    min_d: float


class Elimination(NamedTuple):
    """Forward-sweep factors of one set of rows, fixed whatever the load.

    ``source`` is the ``diag`` array the factors came from; ``lower`` and
    ``upper`` are the rows as Python floats, ``pivots`` the den_i and
    ``mult`` the multipliers c_i of the sweep.
    """

    source: np.ndarray
    lower: list[float]
    upper: list[float]
    pivots: list[float]
    mult: list[float]


def eliminate(lower: np.ndarray, diag: np.ndarray,
              upper: np.ndarray) -> Elimination:
    """Pivots den_i = C_i + A_i c_{i-1} and multipliers c_i = -B_i / den_i.

    Row 0 has no predecessor: x + A * -0.0 is x to the bit for A >= 0, so
    seeding c = -0.0 leaves its pivot C_0 exact.  A vanishing pivot raises
    SingularSystemError naming its row.  The sweep runs on Python floats,
    which round each operation exactly as float64 scalars do but index and
    compute several times faster.
    """
    lo, di, up = lower.tolist(), diag.tolist(), upper.tolist()
    c = -0.0
    try:
        mult = [c := -e / (b + a * c) for a, b, e in zip(lo, di, up)]
    except ZeroDivisionError:
        # the comprehension cannot say which row failed: walk up to it
        c = -0.0
        for row, (a, b, e) in enumerate(zip(lo, di, up)):
            if b + a * c == 0.0:
                raise SingularSystemError(f"zero pivot in row {row}") from None
            c = -e / (b + a * c)
    pivots = [b + a * c for a, b, c in zip(lo, di, [-0.0, *mult])]
    return Elimination(diag, lo, up, pivots, mult)


def solve(sys: TridiagonalSystem, elim: Elimination | None = None
          ) -> np.ndarray:
    """Solve by forward elimination / back substitution (no pivoting).

    Returns the full vector y_0..y_N including the boundary values.  The
    schemes only produce strictly diagonally dominant rows, which keeps
    every pivot nonzero; a vanishing pivot raises SingularSystemError.

    ``elim`` must be ``eliminate(sys.lower, sys.diag, sys.upper)``: rows
    shared by many loads are then eliminated once and only substituted
    here.  An elimination of another ``diag`` array raises ValidationError;
    omitted, it is computed first.
    """
    if elim is None:
        elim = eliminate(sys.lower, sys.diag, sys.upper)
    elif elim.source is not sys.diag:
        raise ValidationError(
            "elimination does not belong to this system's diag")
    left, right = float(sys.left_value), float(sys.right_value)
    # Fold the known boundary values into the first and last interior rows.
    f = sys.rhs.tolist()
    f[0] += elim.lower[0] * left
    f[-1] += elim.upper[-1] * right

    # Rows in assembled orientation: -A y_{i-1} + C y_i - B y_{i+1} = F;
    # seeding d = -0.0 leaves the load of row 0 exact, as c does its pivot.
    d = -0.0
    dp = [d := (g + a * d) / den
          for a, den, g in zip(elim.lower, elim.pivots, f)]
    # The last row already carries y_N, so the sweep back starts from it.
    y = dp[-1]
    back = [y := d - c * y for c, d in zip(elim.mult[-2::-1], dp[-2::-1])]
    return np.array([left, *back[::-1], dp[-1], right])


def check_m_matrix(sys: TridiagonalSystem) -> MMatrixReport:
    """Diagnose the discrete-maximum-principle conditions on interior rows."""
    d = sys.diag - sys.lower - sys.upper
    ok = bool(np.all(sys.lower > 0) and np.all(sys.upper > 0) and np.all(d >= 0))
    return MMatrixReport(satisfied=ok, min_d=float(d.min()))


def stability_bound(sys: TridiagonalSystem) -> float:
    """Sup-norm a-priori bound max(|mu1|, |mu2|, max_i |F_i| / D_i).

    Requires strict domination D_i = |C_i| - |A_i| - |B_i| > 0 on every
    row; the solved y then satisfies ||y||_inf <= bound.
    """
    d = np.abs(sys.diag) - np.abs(sys.lower) - np.abs(sys.upper)
    if d.min() <= 0:
        raise ValidationError("strict diagonal domination required")
    interior = float(np.max(np.abs(sys.rhs) / d))
    return max(abs(sys.left_value), abs(sys.right_value), interior)
