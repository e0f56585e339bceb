"""Canonical 3-point systems, their direct solution, and monotonicity checks.

A system stores the interior rows i = 1..N-1 of

    A_i y_{i-1} - C_i y_i + B_i y_{i+1} = -F_i,     y_0 = mu1,  y_N = mu2,

split into the matrix and the load: ``rows`` holds ``lower`` = A,
``diag`` = C and ``upper`` = B, the system adds ``rhs`` = F, each of
length N-1.  The boundary unknowns are eliminated into the first and last
rows during the solve, so the stored rows are exactly the ones the
monotonicity conditions (A_i > 0, B_i > 0, D_i = C_i - A_i - B_i >= 0)
speak about.

What depends on the rows alone is worked out once per row set and
cached on it: the pivots and multipliers of the elimination, the least
diagonal entry, the domination D and its minimum, which both checks
read; the minimum is also what a caller reads as the M-matrix margin,
since ``check_m_matrix`` only answers whether the conditions hold.  What
depends on A and B alone - A and -B as Python floats, |A|, |B| and the
sign of A and B - is cached too, and rows derived from another set by
``_with_diag`` share it instead of redoing it.  ``solve`` substitutes
into a cached elimination when the rows have one; otherwise it
eliminates and substitutes in one forward pass, one comprehension over
the (multiplier, load) pairs that converts only the diagonal, and caches
no elimination.  Either way it packs the back substitution into the
result array in one call.  Rows shared by every level of every run on
one plan (``imex_linear``) are eliminated once, by the first step that
solves them; rows with a new diagonal at every level (``imex_linearized``)
are derived from the plan's rows and take the one-pass sweep.  These
calls run once per level, so the reductions over the rows call the ufunc
(``np.minimum.reduce``) rather than the array method, which adds a
Python-level wrapper, and give the same value.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, ValidationError

__all__ = [
    "TridiagonalRows",
    "TridiagonalSystem",
    "solve",
    "check_m_matrix",
    "stability_bound",
]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without its ``__post_init__`` checks: for objects the library
    builds from values it has just made, on which those checks could not
    fail.  The fields go straight into the instance dictionary, where
    ``object.__setattr__`` would put them one call each, since no field
    (nor a cached property it fills) is a data descriptor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _cached(functools.cached_property):
    """``functools.cached_property`` without the lock that Python < 3.12
    takes on every first access; what it caches is a pure function of
    frozen rows, so a race only works it out twice."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(frozen=True)
class TridiagonalRows:
    """Interior rows A (``lower``), C (``diag``), B (``upper``).

    The arrays are kept read-only: one passed in is copied unless it is
    already a read-only array owning its data (as the rows of another
    TridiagonalRows are), so the caller's arrays stay writable and what is
    cached from the rows cannot go stale through them.  ``_with_diag``
    derives rows with a new diagonal, unchecked, from a set built this way;
    a ``StepPlan`` builds its rows unchecked from arrays it has just made.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be one-dimensional")
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not 0 < self.lower.size == self.diag.size == self.upper.size:
            raise ValidationError("need at least one interior row, with "
                                  "lower/diag/upper of one length")

    @_cached
    def off_diagonals(self) -> tuple:
        """What A and B alone fix: A and -B as Python floats (each sweep
        divides -B_i by its pivot), |A|, |B|, and whether every A_i and B_i
        is positive (a NaN makes it False).  Rows derived by ``_with_diag``
        share these instead of redoing them; where A and B are one array,
        as on a uniform grid, |A| and the least entry are worked out once."""
        lo, up = self.lower, self.upper
        abs_lo, positive = np.abs(lo), np.minimum.reduce(lo) > 0
        if lo is up:
            abs_up = abs_lo
        else:
            abs_up = np.abs(up)
            positive = positive and np.minimum.reduce(up) > 0
        return lo.tolist(), (-up).tolist(), abs_lo, abs_up, bool(positive)

    def _with_diag(self, diag: np.ndarray) -> TridiagonalRows:
        """Rows with these A and B and the diagonal ``diag``, a 1-d float64
        array of their length that the caller has just made and hands
        over: frozen in place, neither checked nor copied, and given this
        row set's ``off_diagonals``."""
        diag.setflags(write=False)
        return _unchecked(TridiagonalRows, lower=self.lower, diag=diag,
                          upper=self.upper, off_diagonals=self.off_diagonals)

    @_cached
    def elimination(self) -> tuple[list[float], ...]:
        """The forward sweep's factors, fixed whatever the load: the rows
        A as Python floats, the pivots den_i = C_i + A_i c_{i-1} and the
        multipliers c_i = -B_i / den_i.

        Row 0 has no predecessor: x + A * -0.0 is x to the bit for A >= 0,
        so seeding c = -0.0 leaves its pivot C_0 exact.  A vanishing pivot
        raises SingularSystemError naming its row.  The sweep runs on
        Python floats, which round each operation exactly as float64
        scalars do but index and compute several times faster.
        """
        lo, neg_up, *_ = self.off_diagonals
        pivots, mult, c = [], [], -0.0
        try:
            for a, b, ne in zip(lo, self.diag.tolist(), neg_up):
                pivots.append(den := b + a * c)
                mult.append(c := ne / den)
        except ZeroDivisionError:
            raise SingularSystemError(
                f"zero pivot in row {len(mult)}") from None
        return lo, pivots, mult

    @_cached
    def _least_diag(self) -> float:
        """The least C_i (NaN if any C_i is), read by ``domination`` and
        ``check_m_matrix``."""
        return float(np.minimum.reduce(self.diag))

    @_cached
    def domination(self) -> np.ndarray:
        """D_i = |C_i| - |A_i| - |B_i| of every row; where every C_i is
        positive, |C| is C itself and is not worked out."""
        _, _, abs_lower, abs_upper, _ = self.off_diagonals
        diag = self.diag if self._least_diag > 0 else np.abs(self.diag)
        return diag - abs_lower - abs_upper

    @_cached
    def min_domination(self) -> float:
        """The least D_i (NaN if any D_i is), read by both checks."""
        return float(np.minimum.reduce(self.domination))


@dataclass(frozen=True)
class TridiagonalSystem:
    """Rows, one load on them and the two boundary values."""

    rows: TridiagonalRows
    rhs: np.ndarray
    left_value: float
    right_value: float

    def __post_init__(self):
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.shape != self.rows.diag.shape:
            raise ValidationError("rhs must have one entry per row")
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_interior(self) -> int:
        return self.rows.diag.size


def solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve by forward elimination / back substitution (no pivoting).

    Returns the full vector y_0..y_N including the boundary values.  The
    schemes only produce strictly diagonally dominant rows, which keeps
    every pivot nonzero; a vanishing pivot raises SingularSystemError.
    Rows whose ``elimination`` is cached only have the load substituted;
    other rows are eliminated in the same forward pass as the load, in
    the same operation order (Python reads ``-e / den`` as ``(-e) / den``,
    so dividing the cached -B_i gives the same bits), and keep no
    elimination; a zero pivot there is named by eliminating the rows,
    whose pivots do not depend on the load.  The result is a new writable
    float64 array.
    """
    rows = sys.rows
    left, right = float(sys.left_value), float(sys.right_value)
    # Fold the known boundary values into the first and last interior rows.
    f = sys.rhs.tolist()
    f[0] += float(rows.lower[0]) * left
    f[-1] += float(rows.upper[-1]) * right
    # Rows in assembled orientation: -A y_{i-1} + C y_i - B y_{i+1} = F;
    # seeding d = -0.0 leaves the load of row 0 exact, as c does its pivot.
    d = -0.0
    if "elimination" in rows.__dict__:
        lo, pivots, mult = rows.elimination
        dp = [d := (g + a * d) / den for a, den, g in zip(lo, pivots, f)]
        last, pairs = dp[-1], zip(mult[-2::-1], dp[-2::-1])
    else:
        lo, neg_up, *_ = rows.off_diagonals
        c = -0.0
        try:
            cd = [(c := ne / (den := b + a * c), d := (g + a * d) / den)
                  for a, b, ne, g in zip(lo, rows.diag.tolist(), neg_up, f)]
        except ZeroDivisionError:
            # the pivots do not depend on the load, so eliminating the rows
            # meets the same zero pivot and raises naming its row
            rows.elimination
            raise
        last, pairs = cd[-1][1], cd[-2::-1]
    # The last row already carries y_N, so the sweep back starts from it.
    y = last
    back = [y := d - c * y for c, d in pairs]
    out = np.empty(len(back) + 3)
    struct.pack_into(f"{out.size}d", out, 0, left, *reversed(back), last,
                     right)
    return out


def check_m_matrix(sys: TridiagonalSystem) -> bool:
    """Whether the interior rows meet the discrete-maximum-principle
    conditions: A_i, B_i, C_i positive and D_i = C_i - A_i - B_i >= 0.

    With A, B, C > 0 the domination |C| - |A| - |B| is C - A - B, so the
    least D_i is the rows' cached ``min_domination``.
    """
    rows = sys.rows
    # a NaN makes its min NaN and the compare False
    return bool(rows.off_diagonals[-1] and rows._least_diag > 0
                and rows.min_domination >= 0)


def stability_bound(sys: TridiagonalSystem) -> float:
    """Sup-norm a-priori bound max(|mu1|, |mu2|, max_i |F_i| / D_i).

    Requires strict domination D_i = |C_i| - |A_i| - |B_i| > 0 on every
    row; the solved y then satisfies ||y||_inf <= bound.
    """
    rows = sys.rows
    if rows.min_domination <= 0:
        raise ValidationError("strict diagonal domination required")
    interior = float(np.maximum.reduce(np.abs(sys.rhs) / rows.domination))
    return max(abs(sys.left_value), abs(sys.right_value), interior)
