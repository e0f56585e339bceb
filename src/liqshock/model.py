"""Market model, derived constants, and price transforms.

The pricing problem couples two value functions R0 (liquid state) and
R1 (illiquid state).  After the substitution u = gamma*R0, v = gamma*R1
and the time reversal tau = T - t, the pair solves

    u_tau = (1/2) sigma^2 S^2 u_SS - a e^(u-v) + b,
    v_tau = -c e^(v-u) + c,

with a = nu01, b = d0 + nu01, c = nu10 and d0 = mu^2 / (2 sigma^2).
Indifference prices are recovered through two auxiliary functions of
calendar time,

    F0(t) = c1 e^(lam1 t) + c2 e^(lam2 t),
    F1(t) = [c1 (d0+nu01-lam1) e^(lam1 t) + c2 (d0+nu01-lam2) e^(lam2 t)] / nu01,

where lam1/lam2 are the roots of lam^2 - (d0+nu01+nu10) lam + d0*nu10 = 0
and c1, c2 are fixed by the normalization F0(T) = F1(T) = 1.  Prices are
p = R0 + ln(F0)/gamma and q = R1 + ln(F1)/gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError, ValidationError, _raise_first

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "derive_constants",
    "evaluate_f",
    "payoff_call",
    "payoff_zero",
    "to_prices",
]


@dataclass(frozen=True)
class ModelParams:
    """Market and utility inputs.

    sigma    volatility of the underlying (per sqrt(year))
    mu       drift of the underlying (per year)
    gamma    exponential-utility risk aversion
    nu01     transition intensity liquid -> illiquid (per year)
    nu10     transition intensity illiquid -> liquid (per year)
    strike   option strike K
    horizon  expiry T in years
    s_min    left edge of the computational price domain
    s_max    right edge of the computational price domain
    """

    sigma: float
    mu: float
    gamma: float
    nu01: float
    nu10: float
    strike: float
    horizon: float
    s_min: float = 0.0
    s_max: float = 5.0

    def __post_init__(self):
        _raise_first(_param_problems(self))


def _param_problems(p) -> dict[str, str]:
    """First failed check per ModelParams field of ``p`` (key "model" for
    the cross-key domain and finite-d0 checks), in the order reported."""
    checks = [(key, getattr(p, key) > 0, "must be > 0") for key in
              ("sigma", "gamma", "nu01", "nu10", "strike", "horizon")]
    checks += [("s_min", p.s_min >= 0, "must be >= 0"),
               ("model", p.s_min < p.strike < p.s_max,
                "domain must satisfy s_min < strike < s_max")]
    checks += [(f.name, math.isfinite(getattr(p, f.name)), "must be finite")
               for f in fields(ModelParams)]
    # sigma and the grid spacing get squared (infinite ones fail above);
    # "*", since a float's "**" raises OverflowError
    checks += [(key, getattr(p, key) * getattr(p, key) < math.inf,
                "squared must be finite") for key in ("sigma", "s_max")]
    problems = {}
    for key, ok, msg in checks:
        if not ok:
            problems.setdefault(key, msg)
    if "sigma" not in problems and "mu" not in problems:
        try:
            ok = math.isfinite(p.mu ** 2 / (2.0 * p.sigma ** 2))
        except (ZeroDivisionError, OverflowError):
            ok = False
        if not ok:
            problems.setdefault("model", "d0 = mu^2 / (2 sigma^2) must be finite")
    return problems


@dataclass(frozen=True)
class DerivedConstants:
    """Reaction-term constants and the coefficients feeding F0, F1.

    lambda1 carries the plus branch of the root formula and lambda2 the
    minus branch, so lambda1 > lambda2 >= 0, with lambda2 = 0 when mu = 0.
    ``sigma`` and ``horizon`` are carried along so the steppers and F0/F1
    evaluation need no second look at the inputs; in particular F0/F1 are
    computed from exponents lam*(t-T) <= 0 instead of cancellation-prone
    exp(+lam t) * exp(-lam T) products.
    """

    d0: float
    a: float
    b: float
    c: float
    lambda1: float
    lambda2: float
    sigma: float
    horizon: float


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute the reaction constants and F0/F1 coefficients.

    lambda2 is obtained from the product identity lambda1*lambda2 = d0*nu10
    rather than the minus-branch formula; the two agree analytically but the
    product form avoids cancellation when 4*d0*nu10 << (d0+nu01+nu10)^2
    and gives exactly 0 when d0 = 0.
    """
    d0 = params.mu ** 2 / (2.0 * params.sigma ** 2)
    a = params.nu01
    b = d0 + params.nu01
    c = params.nu10
    trace = d0 + params.nu01 + params.nu10
    disc = trace * trace - 4.0 * d0 * params.nu10
    if not 0.0 < disc < math.inf:
        # Algebraically impossible for positive intensities: corrupted
        # inputs, or a trace whose square overflows (or is NaN).
        raise ValidationError("degenerate root pair: discriminant <= 0 or inf")
    # disc is at least an ulp of trace^2, so sqrt(disc) is at least about
    # 1e-8 trace and lam1 exceeds lam2 by far more than an ulp (an
    # underflowing d0 * nu10 gives lam2 = 0): the roots never coincide.
    lam1 = 0.5 * (trace + math.sqrt(disc))
    lam2 = (d0 * params.nu10) / lam1
    return DerivedConstants(d0=d0, a=a, b=b, c=c, lambda1=lam1, lambda2=lam2,
                            sigma=params.sigma, horizon=params.horizon)


# Calendar times outside [0, T] by at most TIME_SLACK * max(T, 1) are
# roundoff, not an error: T / J steps of a long horizon overshoot it by
# an ulp of T.
TIME_SLACK = 1e-12


def _in_horizon(t: float, horizon: float) -> bool:
    """Whether calendar time t lies in [0, horizon] up to roundoff; NaN
    does not."""
    slack = TIME_SLACK * max(horizon, 1.0)
    return -slack <= t <= horizon + slack


def evaluate_f(dc: DerivedConstants, t: float) -> tuple[float, float]:
    """Evaluate (F0(t), F1(t)) for calendar time t in [0, T].

    Internally uses exponents lam*(t - T) <= 0, which keeps both values
    finite for arbitrarily large rates (no exp(+lam t) overflows) and
    enforces F0(T) = F1(T) = 1 up to roundoff.  They are positive in exact
    arithmetic, not always in floating point: F0 underflows to 0 once
    lam2*(T - t) passes about 745, and F1 cancels to 0 when nu01 is
    subnormal.  ``to_prices`` refuses a time whose F is not positive.
    """
    T = dc.horizon
    if not _in_horizon(t, T):
        raise ValidationError(f"t={t} outside [0, {T}]")
    q1 = (dc.lambda2 - dc.d0) / (dc.lambda2 - dc.lambda1)
    q2 = (dc.lambda1 - dc.d0) / (dc.lambda1 - dc.lambda2)
    e1 = math.exp(dc.lambda1 * (t - T))
    e2 = math.exp(dc.lambda2 * (t - T))
    f0 = q1 * e1 + q2 * e2
    nu01 = dc.a
    f1 = (q1 * (dc.d0 + nu01 - dc.lambda1) * e1
          + q2 * (dc.d0 + nu01 - dc.lambda2) * e2) / nu01
    return f0, f1


def payoff_call(s, strike):
    """Call payoff max(s - strike, 0); accepts scalars or arrays."""
    return np.maximum(np.asarray(s, dtype=float) - strike, 0.0)


def payoff_zero(s, strike):
    """Identically zero payoff, used as comparison data in audits."""
    return np.zeros_like(np.asarray(s, dtype=float))


def to_prices(u, v, t: float, params: ModelParams,
              dc: DerivedConstants) -> tuple[np.ndarray, np.ndarray]:
    """Map transformed unknowns (u, v) at calendar time t to prices (p, q).

    p = u/gamma + ln(F0(t))/gamma and q = v/gamma + ln(F1(t))/gamma,
    applied pointwise; u and v must share a shape.  A price that is not
    finite is a NumericalError, ``non-finite prices at t=...``: a
    subnormal gamma overflows the division, and an F that underflowed or
    cancelled to 0 has no log, which reads as NaN.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError("u and v must share a shape")
    f0, f1 = evaluate_f(dc, t)
    g = params.gamma
    with np.errstate(all="ignore"):  # reported once, just below
        p = u / g + (math.log(f0) if f0 > 0 else math.nan) / g
        q = v / g + (math.log(f1) if f1 > 0 else math.nan) / g
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise NumericalError(f"non-finite prices at t={t}")
    return p, q
