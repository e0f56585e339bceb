"""Property tests over the acceptance criterion-9 parameter box.

On this box ``imex_linear`` breaks down on most draws (the reaction step
restriction ratio overflows), so the property is not that every run
finishes: each run either finishes with a finite state, the M-matrix
sign pattern and the sup-norm bound, or it fails with a LiqshockError.
No other exception may reach the caller.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liqshock import (
    LiqshockError,
    ModelParams,
    SchemeConfig,
    solve_forward,
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
