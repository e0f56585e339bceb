"""Grid construction and the time-step coupling rules."""

import math
import tracemalloc

import numpy as np
import pytest

from liqshock import (
    ModelParams,
    SpatialGrid,
    TimeGrid,
    ValidationError,
    solve_forward,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
)
from liqshock.mesh import MAX_CELLS

# S_1 of the 2-interval stretched grid on [0,5], K=2, alpha=15,
# computed with mpmath at 50 digits and frozen.
TR_MIDPOINT = 2.4932041597174132989


class TestUniformGrid:
    def test_small_examples(self):
        np.testing.assert_allclose(uniform_grid(0, 5, 5).nodes,
                                   [0, 1, 2, 3, 4, 5])
        np.testing.assert_allclose(uniform_grid(0, 5, 2).nodes, [0, 2.5, 5])

    def test_spacing(self):
        g = uniform_grid(0, 5, 30)
        assert g.min_spacing() == pytest.approx(1 / 6, abs=1e-16)

    def test_uniform_is_derived_from_nodes(self):
        assert uniform_grid(0, 5, 30).uniform
        assert SpatialGrid(np.linspace(0, 5, 31)).uniform
        g = SpatialGrid([0, 1, 3, 5])
        assert not g.uniform
        assert g.min_spacing() == 1.0
        assert not tavella_randall_grid(0, 5, 2, 15, 30).uniform

    def test_nodes_leave_the_callers_array_alone(self):
        n = np.linspace(0, 5, 11)
        g = SpatialGrid(n)
        assert n.flags.writeable and g.nodes is not n
        assert not g.nodes.flags.writeable
        n[-1] = 9.0
        assert g.nodes[-1] == 5.0 and g.uniform
        # a grid's own nodes are shared, not copied again
        assert SpatialGrid(g.nodes).nodes is g.nodes

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            uniform_grid(0, 5, 1)
        for intervals in (1, 10.5):
            with pytest.raises(ValidationError, match="at least 2 intervals"):
                tavella_randall_grid(0, 5, 2, 15, intervals)
        with pytest.raises(ValidationError, match="whole number"):
            uniform_grid(0, 5, 10.5)
        assert uniform_grid(0, 5, np.int64(10)).intervals == 10
        with pytest.raises(ValidationError):
            uniform_grid(5, 5, 10)
        with pytest.raises(ValidationError, match="at least 3 nodes"):
            SpatialGrid([0.0, 1.0])
        with pytest.raises(ValidationError, match="strictly increasing"):
            SpatialGrid([0.0, 2.0, 2.0, 3.0])
        for nodes in ([0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0],
                      [0.0, math.nan, 1.0]):
            with pytest.raises(ValidationError, match="finite"):
                SpatialGrid(nodes)

    def test_rejects_runaway_size_unallocated(self):
        tracemalloc.start()
        try:
            for build in (lambda n: uniform_grid(0, 5, n),
                          lambda n: tavella_randall_grid(0, 5, 2, 15, n)):
                with pytest.raises(ValidationError, match="MAX_CELLS"):
                    build(10 ** 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the grid alone would take 800 MB


class TestTavellaRandallGrid:
    def test_exact_endpoints(self):
        g = tavella_randall_grid(0, 5, 2, 15, 7)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 5.0

    def test_midpoint_value(self):
        g = tavella_randall_grid(0, 5, 2, 15, 2)
        assert g.nodes[1] == pytest.approx(TR_MIDPOINT, rel=1e-14)

    def test_min_spacing_brackets_strike(self):
        g = tavella_randall_grid(0, 5, 2, 15, 240)
        spacings = np.diff(g.nodes)
        k = int(np.argmin(spacings))
        assert g.nodes[k] <= 2.0 <= g.nodes[k + 1]

    def test_bare_nodes_solve_like_the_builder(self):
        params = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0,
                             nu10=12.0, strike=2.0, horizon=1.0)
        built = tavella_randall_grid(0, 5, 2, 15, 120)
        runs = [solve_forward(params, g, time_grid_from_space(g, 1.0))
                for g in (built, SpatialGrid(built.nodes))]
        np.testing.assert_array_equal(runs[0].final_state.u,
                                      runs[1].final_state.u)
        np.testing.assert_array_equal(runs[0].final_state.v,
                                      runs[1].final_state.v)

    def test_large_alpha_tends_uniform(self):
        g = tavella_randall_grid(0, 5, 2, 1e8, 64)
        u = uniform_grid(0, 5, 64)
        assert np.abs(g.nodes - u.nodes).max() <= 1e-6

    def test_structure_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s_max = rng.uniform(3.0, 40.0)
            strike = rng.uniform(0.5, s_max - 0.5)
            alpha = rng.uniform(0.05, 50.0)
            n = int(rng.integers(2, 200))
            g = tavella_randall_grid(0.0, s_max, strike, alpha, n)
            assert g.nodes.size == n + 1
            assert g.nodes[0] == 0.0 and g.nodes[-1] == s_max
            assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_alpha(self):
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                tavella_randall_grid(0, 5, 2, alpha, 10)
        # (s - K)/alpha overflows, and the nodes are refused without a
        # numpy warning first
        with pytest.raises(ValidationError, match="nodes must be finite"):
            tavella_randall_grid(0, 5, 2, 1e-310, 10)

    def test_rejects_strike_outside_domain(self):
        for strike in (0.0, 5.0, 7.0):
            with pytest.raises(ValidationError, match="s_min < strike"):
                tavella_randall_grid(0, 5, strike, 15.0, 10)


class TestTimeGrid:
    def test_half_spacing_divides(self):
        g = uniform_grid(0, 5, 30)
        tg = time_grid_from_space(g, 1.0)
        assert tg.steps == 12
        assert tg.dt == pytest.approx(1 / 12, abs=1e-16)

    def test_half_spacing_fine(self):
        g = uniform_grid(0, 5, 240)
        tg = time_grid_from_space(g, 1.0)
        assert tg.steps == 96
        assert tg.dt == pytest.approx(1 / 96, abs=1e-16)

    def test_explicit_rule_ceils(self):
        g = uniform_grid(0, 5, 10)
        tg = time_grid_from_space(g, 1.0, rule=0.3)
        assert tg.steps == 4
        assert tg.dt == 0.25

    def test_product_recovers_horizon(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 1500))
            horizon = rng.uniform(0.05, 4.0)
            g = uniform_grid(0.0, rng.uniform(1.0, 20.0), n)
            tg = time_grid_from_space(g, horizon)
            assert tg.steps * tg.dt == pytest.approx(horizon, rel=4e-16)

    def test_no_spurious_extra_step(self):
        # linspace spacings differ by ulp; the snap must still see 1/384
        g = uniform_grid(0, 5, 960)
        tg = time_grid_from_space(g, 1.0)
        assert tg.steps == 384

    def test_halved(self):
        tg = TimeGrid(dt=0.25, steps=4).halved()
        assert tg.steps == 8 and tg.dt == 0.125

    def test_rejects_bad_partition(self):
        for dt in (0.0, -0.1, math.inf):
            with pytest.raises(ValidationError, match="dt must be positive"):
                TimeGrid(dt=dt, steps=4)
        for steps in (-1, 0, 2.5):
            with pytest.raises(ValidationError,
                               match="steps must be a whole number >= 1"):
                TimeGrid(dt=0.25, steps=steps)
        assert TimeGrid(dt=0.25, steps=np.int64(4)).halved().steps == 8

    def test_rejects_bad_dt(self):
        g = uniform_grid(0, 5, 10)
        with pytest.raises(ValidationError):
            time_grid_from_space(g, 1.0, rule=-0.1)
        with pytest.raises(ValidationError):
            time_grid_from_space(g, 1.0, rule=2.0)
        with pytest.raises(ValidationError, match="explicit dt must be > 0"):
            time_grid_from_space(g, 1.0, rule=float("nan"))
        with pytest.raises(ValidationError, match="'explicit'"):
            time_grid_from_space(g, 1.0, rule="explicit")
        for horizon in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="horizon must be > 0"):
                time_grid_from_space(g, horizon)
        # a runaway step count; 1 / 1e-320 is inf and must not reach ceil
        g = uniform_grid(0, 1, 2)
        for dt in (1e-9, 1e-320):
            with pytest.raises(ValidationError, match="MAX_CELLS"):
                time_grid_from_space(g, 1.0, dt)
        tg = time_grid_from_space(g, 1.0, 2 / MAX_CELLS)  # at the cap
        assert tg.steps == MAX_CELLS // 2
