"""Property tests over the acceptance criterion-9 parameter box.

On this box ``imex_linear`` breaks down on most draws (the reaction step
restriction ratio overflows), so the property is not that every run
finishes: each run either finishes with a finite state, the M-matrix
sign pattern and the sup-norm bound, or it fails with a LiqshockError.
No other exception may reach the caller.  A fixed sample of the box is
also pinned bit for bit, breakdowns included.
"""

import hashlib
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liqshock import (
    LiqshockError,
    ModelParams,
    SchemeConfig,
    SolveFailure,
    at_the_money,
    solve_forward,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
)

# the box acceptance criterion 9 samples
BOX = st.builds(
    ModelParams,
    sigma=st.floats(0.05, 1.0),
    mu=st.floats(-0.5, 0.5),
    gamma=st.floats(0.1, 10.0),
    nu01=st.floats(0.01, 20.0),
    nu10=st.floats(0.01, 20.0),
    strike=st.floats(0.5, 10.0),
    horizon=st.floats(0.1, 3.0),
    s_min=st.just(0.0),
    s_max=st.floats(11.0, 50.0),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(params=BOX, scheme=st.sampled_from(["imex_linear", "imex_linearized"]))
def test_solve_finishes_clean_or_raises_liqshock_error(params, scheme):
    grid = uniform_grid(params.s_min, params.s_max, 20)
    tg = time_grid_from_space(grid, params.horizon)
    try:
        with warnings.catch_warnings():
            # restriction violations warn; the run is judged by its result
            warnings.simplefilter("ignore", RuntimeWarning)
            res = solve_forward(params, grid, tg, SchemeConfig(scheme=scheme))
    except LiqshockError:
        return
    assert np.isfinite(res.final_state.u).all()
    assert np.isfinite(res.final_state.v).all()
    d = res.diagnostics
    assert d.m_matrix_ok
    assert math.isfinite(d.bound_margin) and d.bound_margin >= -1e-9


# SHA-256 of the lines of 60 draws from the box (numpy's default_rng(7))
# x both schemes x uniform and tavella (alpha = 15) grids at I = 60, each
# with its slaved dt.  A finished run's line holds the repr of its
# at-the-money R0 and R1 and of every SolveDiagnostics field; a run that
# breaks down, its step and message.
BOX_PIN = "97ab936a3e1dab61cc41bdf04cbf74f8673a83159e16fa158fc9b9f3e6552320"


def test_box_sample_pinned_bit_for_bit():
    rng = np.random.default_rng(7)
    box = [("sigma", 0.05, 1.0), ("mu", -0.5, 0.5), ("gamma", 0.1, 10.0),
           ("nu01", 0.01, 20.0), ("nu10", 0.01, 20.0), ("strike", 0.5, 10.0),
           ("horizon", 0.1, 3.0), ("s_max", 11.0, 50.0)]
    draws = [ModelParams(s_min=0.0, **{key: float(rng.uniform(lo, hi))
                                       for key, lo, hi in box})
             for _ in range(60)]
    lines = []
    for k, p in enumerate(draws):
        for grid in (uniform_grid(p.s_min, p.s_max, 60),
                     tavella_randall_grid(p.s_min, p.s_max, p.strike, 15.0,
                                          60)):
            tg = time_grid_from_space(grid, p.horizon)
            for scheme in ("imex_linear", "imex_linearized"):
                try:
                    with warnings.catch_warnings():
                        warnings.filterwarnings(
                            "ignore", "reaction time-step restriction",
                            RuntimeWarning)
                        res = solve_forward(p, grid, tg,
                                            SchemeConfig(scheme=scheme))
                except SolveFailure as err:
                    lines.append(f"{k} {scheme} SolveFailure "
                                 f"{err.step_index} {err}")
                    continue
                d = res.diagnostics
                lines.append(" ".join(map(repr, (
                    k, scheme, at_the_money(res), at_the_money(res, "r1"),
                    d.solves, d.m_matrix_ok, d.min_d, d.min_d_step,
                    d.bound_margin, d.bound_margin_step, d.restriction_max,
                    d.restriction_max_step))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert sum("SolveFailure" in line for line in lines) > 0
    assert digest == BOX_PIN
