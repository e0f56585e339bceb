"""Canonical 3-point systems, their direct solution, and monotonicity checks.

A system stores the interior rows i = 1..N-1 of

    A_i y_{i-1} - C_i y_i + B_i y_{i+1} = -F_i,     y_0 = mu1,  y_N = mu2,

i.e. ``lower`` = A, ``diag`` = C, ``upper`` = B and ``rhs`` = F, each of
length N-1.  The boundary unknowns are eliminated into the first and last
rows during the solve, so the stored rows are exactly the ones the
monotonicity conditions (A_i > 0, B_i > 0, D_i = C_i - A_i - B_i >= 0)
speak about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, ValidationError

__all__ = [
    "TridiagonalSystem",
    "MMatrixReport",
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


def solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve by forward elimination / back substitution (no pivoting).

    Returns the full vector y_0..y_N including the boundary values.  The
    schemes only produce strictly diagonally dominant rows, which keeps
    every pivot nonzero; a vanishing pivot raises SingularSystemError.
    The sweep runs on Python floats, which round each operation exactly as
    float64 scalars do but index and compute several times faster.
    """
    n = sys.n_interior
    lo, di, up = sys.lower.tolist(), sys.diag.tolist(), sys.upper.tolist()
    left, right = float(sys.left_value), float(sys.right_value)
    # Fold the known boundary values into the first and last interior rows.
    f = sys.rhs.tolist()
    f[0] += lo[0] * left
    f[-1] += up[-1] * right

    # Rows in assembled orientation: -A y_{i-1} + C y_i - B y_{i+1} = F.
    if di[0] == 0.0:
        raise SingularSystemError("zero pivot in row 0")
    cp = [-up[0] / di[0]]
    dp = [f[0] / di[0]]
    for i in range(1, n):
        den = di[i] + lo[i] * cp[i - 1]
        if den == 0.0:
            raise SingularSystemError(f"zero pivot in row {i}")
        cp.append(-up[i] / den)
        dp.append((f[i] + lo[i] * dp[i - 1]) / den)

    y = [0.0] * (n + 2)
    y[0] = left
    y[-1] = right
    y[n] = dp[-1]
    for i in range(n - 1, 0, -1):
        y[i] = dp[i - 1] - cp[i - 1] * y[i + 1]
    return np.array(y)


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
