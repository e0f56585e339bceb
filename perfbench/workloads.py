"""The three workloads: inputs made from a seed, one operation, its check.

Why each workload exists is recorded in BENCHMARK.json and README.md.

Every call into the library goes through a module attribute
(``schemes.solve_forward``, ``analysis.extrapolated_study``, ...) so that
the tracer's wrappers see it.  ``check`` returns the list of problems
with an operation's output (empty when it is correct) and the figures
the run reports beside its metrics, such as the positivity dip.
``breakdown`` says whether an exception is the documented outcome of its
input (a scheme overflowing on part of the criterion-9 box): such
an operation is counted by its class and lowers ``ok_share``, but it is
not a failed operation.  Any other exception is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from liqshock import analysis, mesh, model, schemes
from liqshock.errors import LiqshockError, SolveFailure

SCHEMES = ("imex_linear", "imex_linearized")

# The paper's standard parameter set (the CLI defaults).
STANDARD = model.ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0,
                             nu10=12.0, strike=2.0, horizon=1.0,
                             s_min=0.0, s_max=5.0)
EXTRAPOLATED_LIMIT = 0.2480053

# A reference value is matched to this absolute tolerance: far below the
# discretisation error, far above the roundoff a different tridiagonal
# solver or operation order introduces (~1e-12).
MATCH_TOL = 1e-9
TRANSLATION_TOL = 1e-12
COMPARISON_TOL = -1e-12
BOUND_MARGIN_TOL = -1e-9

LADDER_LEVELS = {"full": [40, 80, 160, 320, 640], "tiny": [40, 80, 160]}
SWEEP_SETS = {"full": 1200, "tiny": 12}
SWEEP_INTERVALS = 60
VERIFY_INTERVALS = {"full": 480, "tiny": 60}
VERIFY_ALPHA = 15.0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (seed, size) -> one cycle of items, scheme first
    run: Callable     # item -> output
    check: Callable   # (item, output, reference) -> (problems, observed)
    breakdown: Callable = lambda item, err, reference: False


def failure_class(err: Exception) -> str:
    return "liqshock_error" if isinstance(err, LiqshockError) else "raw_exception"


def _scheme_order(seed):
    return [SCHEMES[i] for i in np.random.default_rng(seed).permutation(2)]


# --------------------------------------------------------------------------
# richardson_ladder
# --------------------------------------------------------------------------

def _ladder_inputs(seed, size):
    return [(scheme, LADDER_LEVELS[size]) for scheme in _scheme_order(seed)]


def _ladder_run(item):
    scheme, levels = item
    return analysis.extrapolated_study(STANDARD, scheme, "uniform", levels)


def _ladder_check(item, rows, reference):
    scheme, levels = item
    top = rows[-1]
    y, order = top.extrapolated, top.order
    expected = reference[str(levels[-1])][scheme]
    problems = []
    if not abs(y - EXTRAPOLATED_LIMIT) <= 1e-3:
        problems.append(f"Y({levels[-1]})={y!r} not within 1e-3 of "
                        f"{EXTRAPOLATED_LIMIT}")
    if not abs(y - expected) <= MATCH_TOL:
        problems.append(f"Y({levels[-1]})={y!r} != reference {expected!r}")
    if order is None or not 1.7 <= order <= 2.5:
        problems.append(f"order({levels[-1]})={order!r} outside [1.7, 2.5]")
    return problems, {f"Y.{scheme}": y, f"order.{scheme}": order}


# --------------------------------------------------------------------------
# param_sweep
# --------------------------------------------------------------------------

def draw_params(rng) -> model.ModelParams:
    """One parameter set from the acceptance criterion-9 box."""
    return model.ModelParams(
        sigma=float(rng.uniform(0.05, 1.0)),
        mu=float(rng.uniform(-0.5, 0.5)),
        gamma=float(rng.uniform(0.1, 10.0)),
        nu01=float(rng.uniform(0.01, 20.0)),
        nu10=float(rng.uniform(0.01, 20.0)),
        strike=float(rng.uniform(0.5, 10.0)),
        horizon=float(rng.uniform(0.1, 3.0)),
        s_min=0.0,
        s_max=float(rng.uniform(11.0, 50.0)),
    )


def _sweep_inputs(seed, size):
    rng = np.random.default_rng(seed)
    sets = [draw_params(rng) for _ in range(SWEEP_SETS[size])]
    items = [(s, k, p, schemes.SchemeConfig(scheme=s), seed)
             for k, p in enumerate(sets) for s in SCHEMES]
    return [items[i] for i in rng.permutation(len(items))]


def _sweep_run(item):
    _, _, p, config, _ = item
    grid = mesh.uniform_grid(p.s_min, p.s_max, SWEEP_INTERVALS)
    tg = mesh.time_grid_from_space(grid, p.horizon, mesh.HALF_MIN_SPACING)
    result = schemes.solve_forward(p, grid, tg, config)
    return analysis.at_the_money(result), result.diagnostics


def _sweep_check(item, output, reference):
    scheme, k, _, _, seed = item
    value, diag = output
    problems = []
    if not math.isfinite(value):
        problems.append(f"set {k}: value {value!r} not finite")
    if not diag.m_matrix_ok:
        problems.append(f"set {k}: M-matrix check failed (min D {diag.min_d!r})")
    if not diag.bound_margin >= BOUND_MARGIN_TOL:
        problems.append(f"set {k}: sup-norm bound margin {diag.bound_margin!r}")
    if seed == reference["seed"]:
        expected = reference[scheme][k]
        # None: the reference run raised; a run that now returns is only
        # held to the structural checks above.
        tol = MATCH_TOL * max(1.0, abs(expected or 0.0))
        if expected is not None and not abs(value - expected) <= tol:
            problems.append(f"set {k} {scheme}: {value!r} != "
                            f"reference {expected!r}")
    return problems, {}


def _sweep_breakdown(item, err, reference):
    """The reaction step restriction overflows ``math.exp`` on about 57%
    of the box for ``imex_linear`` and on about one set in a thousand for
    ``imex_linearized``: a bare OverflowError in the library as it stands,
    a SolveFailure once that is caught.  For the reference seed only the
    sets whose reference run raised may break down."""
    scheme, k, _, _, seed = item
    if not isinstance(err, (OverflowError, SolveFailure)):
        return False
    return seed != reference["seed"] or reference[scheme][k] is None


# --------------------------------------------------------------------------
# verify_audit
# --------------------------------------------------------------------------

def _call_plus_tenth(s, strike):
    return model.payoff_call(s, strike) + 0.1


def _verify_inputs(seed, size):
    return [(scheme, VERIFY_INTERVALS[size]) for scheme in _scheme_order(seed)]


def _verify_run(item):
    """The CLI ``verify`` flow: three captured runs on one grid, six audits."""
    scheme, intervals = item
    p = STANDARD
    grid = mesh.tavella_randall_grid(p.s_min, p.s_max, p.strike, VERIFY_ALPHA,
                                     intervals)
    tg = mesh.time_grid_from_space(grid, p.horizon, mesh.HALF_MIN_SPACING)
    config = schemes.SchemeConfig(scheme=scheme)
    base, shifted, zero = (
        schemes.solve_forward(p, grid, tg, config, payoff=payoff,
                              capture_trajectory=True)
        for payoff in (model.payoff_call, _call_plus_tenth, model.payoff_zero))
    return {
        "positivity": analysis.audit_positivity(base),
        "comparison_shift": analysis.audit_comparison(shifted, base),
        "comparison_zero": analysis.audit_comparison(base, zero),
        "translation": analysis.audit_translation(base, shifted, 0.1 * p.gamma),
        "m_matrix": analysis.audit_m_matrix(base),
        "sup_bound": analysis.audit_sup_bound(base),
    }


def _verify_check(item, audits, reference):
    scheme, intervals = item
    problems = []
    if not audits["translation"].worst <= TRANSLATION_TOL:
        problems.append(f"translation error {audits['translation'].worst!r}")
    for key in ("comparison_shift", "comparison_zero"):
        if not audits[key].worst >= COMPARISON_TOL:
            problems.append(f"{key} gap {audits[key].worst!r}")
    for key in ("m_matrix", "sup_bound"):
        if not audits[key].passed:
            problems.append(f"{key} audit failed (worst {audits[key].worst!r})")
    # The O(dt) positivity dip is a known property of both schemes: it is
    # reported and must match the reference, but the audit's FAIL is not
    # an operation failure.
    dip = audits["positivity"].worst
    expected = reference[str(intervals)][scheme]
    if not abs(dip - expected) <= MATCH_TOL:
        problems.append(f"positivity worst {dip!r} != reference {expected!r}")
    return problems, {f"positivity_worst.{scheme}": dip}


WORKLOADS = {w.name: w for w in (
    Workload("richardson_ladder", _ladder_inputs, _ladder_run, _ladder_check),
    Workload("param_sweep", _sweep_inputs, _sweep_run, _sweep_check,
             _sweep_breakdown),
    Workload("verify_audit", _verify_inputs, _verify_run, _verify_check),
)}
