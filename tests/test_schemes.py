"""Stepper assembly, boundary rules, marching, and structural invariants."""

import functools
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from liqshock import schemes
from liqshock import (
    NATURAL,
    DerivedConstants,
    GridState,
    ModelParams,
    NumericalError,
    SchemeConfig,
    SolveFailure,
    StepPlan,
    TimeGrid,
    TridiagonalRows,
    ValidationError,
    assemble_scheme1,
    assemble_scheme2,
    check_m_matrix,
    derive_constants,
    implicit_oracle,
    initial_state,
    payoff_call,
    restriction_ratio,
    solve_forward,
    step,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
    verify,
)


@pytest.fixture
def params():
    return ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                       strike=2.0, horizon=1.0, s_min=0.0, s_max=5.0)


@pytest.fixture
def dc(params):
    return derive_constants(params)


def reaction_only_dc(sigma=0.0, a=1.0, b=1.02, c=12.0):
    """Constants assembled directly, for degenerate test modes."""
    return DerivedConstants(d0=b - a, a=a, b=b, c=c, lambda1=1.0, lambda2=0.5,
                            sigma=sigma, horizon=1.0)


class TestInitialState:
    @pytest.mark.parametrize("gamma,s,expected",
                             [(1.0, 5.0, 3.0), (1.0, 2.0, 0.0), (2.0, 3.0, 2.0)])
    def test_payoff_scaling(self, gamma, s, expected):
        p = ModelParams(sigma=0.3, mu=0.06, gamma=gamma, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        grid = uniform_grid(0, 5, 10)
        st = initial_state(grid, p)
        i = int(np.argmin(np.abs(grid.nodes - s)))
        assert st.u[i] == expected
        assert st.v[i] == expected
        assert st.step_index == 0

    def test_overflowing_gamma_raises_without_warning(self):
        p = ModelParams(sigma=0.3, mu=0.06, gamma=1e308, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once
            with pytest.raises(ValidationError, match="non-finite"):
                initial_state(uniform_grid(0, 5, 10), p)

    # the march builds every level's system unchecked on the shape of
    # level 0, so a payoff of another shape is refused before it starts
    @pytest.mark.parametrize("payoff", [
        lambda s, k: payoff_call(s[:-1], k), lambda s, k: np.zeros(3),
        lambda s, k: np.zeros(0), lambda s, k: 1.0,
        lambda s, k: payoff_call(np.append(s, 6.0), k)],
        ids=["short", "three", "empty", "scalar", "long"])
    def test_payoff_of_another_shape_refused(self, params, payoff):
        grid = uniform_grid(0, 5, 20)
        for scheme in ("imex_linear", "imex_linearized"):
            with pytest.raises(ValidationError, match="one value per grid"):
                solve_forward(params, grid, TimeGrid(dt=0.05, steps=20),
                              SchemeConfig(scheme=scheme), payoff=payoff)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            GridState(0, np.array([1.0, np.inf]), np.array([0.0, 0.0]))

    # one interior value broadcasts against the plan's rows, three do not
    @pytest.mark.parametrize("nodes", [3, 5])
    def test_state_that_does_not_fit_the_plan(self, params, dc, nodes):
        st = GridState(0, np.zeros(nodes), np.zeros(nodes))
        for scheme in ("imex_linear", "imex_linearized"):
            plan = StepPlan(uniform_grid(0, 5, 20), TimeGrid(0.05, 20), dc,
                            SchemeConfig(scheme=scheme))
            for build in (assemble_scheme1, assemble_scheme2, step):
                with pytest.raises(ValidationError,
                                   match="one value per grid node"):
                    build(st, plan)
        with pytest.raises(ValidationError, match="equal length"):
            GridState(0, np.zeros(3), np.zeros(4))
        with pytest.raises(ValidationError, match="step_index"):
            GridState(-1, np.zeros(3), np.zeros(3))


class TestStepPlan:
    def test_rows_are_read_only_and_shared(self, params, dc):
        grid = uniform_grid(0, 5, 12)
        tg = TimeGrid(dt=0.05, steps=20)
        for scheme in ("imex_linear", "imex_linearized"):
            plan = StepPlan(grid, tg, dc, SchemeConfig(scheme=scheme))
            with pytest.raises(FrozenInstanceError):
                plan.rows = plan.rows
            for name in ("lower", "upper", "diag"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(plan.rows, name)[0] = 1.0
                with pytest.raises(FrozenInstanceError):
                    setattr(plan.rows, name, np.ones(11))
            st, first = step(initial_state(grid, params), plan)
            _, second = step(st, plan)
            for sys in (first, second):
                assert sys.rows.lower is plan.rows.lower
                assert sys.rows.upper is plan.rows.upper
                # the linear rows are the plan's; the linearized diagonal
                # changes with the level
                assert (sys.rows is plan.rows) == (scheme == "imex_linear")

    # The plan builds its rows unchecked from the arrays it has just made:
    # they hold the bits of the public rows built from the documented
    # weights, are float64, read-only and own their data, and every fact
    # worked out from them is the public rows' (on a uniform grid A and B
    # stay one array, whose facts are worked out once).
    def test_rows_are_the_public_rows(self, params, dc):
        sigma = params.sigma
        for grid in (uniform_grid(0, 5, 60),
                     tavella_randall_grid(0, 5, 2, 15, 60)):
            tg = time_grid_from_space(grid, params.horizon)
            rows = StepPlan(grid, tg, dc, SchemeConfig()).rows
            s, ds = grid.nodes, grid.min_spacing()
            if grid.uniform:
                lower = 0.5 * sigma ** 2 * s[1:-1] ** 2 / ds ** 2
                upper = lower.copy()
            else:
                hl, hr = np.diff(s[:-1]), np.diff(s[1:])
                ssq = sigma ** 2 * s[1:-1] ** 2
                lower, upper = ssq / (hl * (hl + hr)), ssq / (hr * (hl + hr))
            public = TridiagonalRows(lower, 1.0 / tg.dt + lower + upper, upper)
            assert (rows.lower is rows.upper) == grid.uniform
            for name in ("lower", "diag", "upper"):
                got, want = getattr(rows, name), getattr(public, name)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert not got.flags.writeable and got.flags.owndata
                assert got.tobytes() == want.tobytes()
            *lists, abs_lo, abs_up, positive = rows.off_diagonals
            *want_lists, want_lo, want_up, want_positive = public.off_diagonals
            assert lists == want_lists and positive is want_positive is True
            assert abs_lo.tobytes() == want_lo.tobytes()
            assert abs_up.tobytes() == want_up.tobytes()
            assert rows.elimination == public.elimination
            assert rows.domination.tobytes() == public.domination.tobytes()

    # The level's numpy calls take the plan's constants as 0-d arrays in
    # place of Python floats, which must move no bit: each array equals its
    # formula written with the floats of plan.dc and plan.tg, on the
    # standard set and 20 draws from the criterion-9 box.
    def test_constants_move_no_bit(self, params):
        rng = np.random.default_rng(29)
        box = [("sigma", 0.05, 1.0), ("mu", -0.5, 0.5), ("gamma", 0.1, 10.0),
               ("nu01", 0.01, 20.0), ("nu10", 0.01, 20.0),
               ("strike", 0.5, 10.0), ("horizon", 0.1, 3.0),
               ("s_max", 11.0, 50.0)]
        draws = [params] + [
            ModelParams(s_min=0.0, **{key: float(rng.uniform(lo, hi))
                                      for key, lo, hi in box})
            for _ in range(20)]
        for p in draws:
            grid = uniform_grid(p.s_min, p.s_max, 60)
            tg = time_grid_from_space(grid, p.horizon)
            u = initial_state(grid, p).u
            v = u + rng.uniform(-1.0, 1.0, u.size)
            st, ui, vi = GridState(0, u, v), u[1:-1], v[1:-1]
            for scheme in ("imex_linear", "imex_linearized"):
                plan = StepPlan(grid, tg, derive_constants(p),
                                SchemeConfig(scheme=scheme))
                a, b, c, dt = plan.dc.a, plan.dc.b, plan.dc.c, plan.tg.dt
                for const in plan._consts:
                    assert const.shape == () and const.dtype == np.float64
                    with pytest.raises(ValueError, match="read-only"):
                        const[()] = 0.0
                want = ui / dt - a * np.exp(ui - vi) + b
                assert assemble_scheme1(st, plan).rhs.tobytes() == \
                    want.tobytes()
                w, z = a * np.exp(u - v), c * np.exp(v - u)
                k_hat = 1.0 / dt + z
                g = v / dt - z * (1.0 - v + u) + c
                wi, ki = w[1:-1], k_hat[1:-1]
                f_hat = ui / dt - wi * (1.0 + vi - ui) + b
                sys, keg = assemble_scheme2(st, plan)
                for got, want in zip(
                        (sys.rows.diag, sys.rhs, *keg),
                        (plan.rows.diag + wi - wi * z[1:-1] / ki,
                         f_hat + wi / ki * g[1:-1], k_hat, -z, g)):
                    assert got.tobytes() == want.tobytes()
                if scheme == "imex_linear":
                    want = v - dt * c * (np.exp(v - u) - 1.0)
                    assert step(st, plan)[0].v.tobytes() == want.tobytes()

    def test_three_point_weights_at_tavella_node(self, params, dc):
        grid = tavella_randall_grid(0, 5, 2, 1.0, 12)
        assert not grid.uniform
        plan = StepPlan(grid, TimeGrid(dt=0.1, steps=10), dc, SchemeConfig())
        s, i = grid.nodes, 6  # node i is interior row i - 1
        hl, hr = s[i] - s[i - 1], s[i + 1] - s[i]
        ssq = 0.3 ** 2 * s[i] ** 2
        lower, upper = plan.rows.lower[i - 1], plan.rows.upper[i - 1]
        assert lower == pytest.approx(ssq / (hl * (hl + hr)), rel=1e-14)
        assert upper == pytest.approx(ssq / (hr * (hl + hr)), rel=1e-14)
        assert plan.rows.diag[i - 1] == pytest.approx(10.0 + lower + upper,
                                                      rel=1e-14)
        # the stencil of (1/2) sigma^2 S^2 d2/dS2 is exact on S and S^2
        weights = np.array([lower, -(lower + upper), upper])
        local = s[i - 1:i + 2]
        assert weights @ local == pytest.approx(0.0, abs=1e-12)
        assert weights @ local ** 2 == pytest.approx(ssq, rel=1e-12)


class TestAssembleScheme1:
    def test_diffusion_coefficient_value(self, params, dc):
        grid = uniform_grid(0, 5, 30)
        tg = TimeGrid(dt=1 / 12, steps=12)
        cfg = SchemeConfig()
        sys = assemble_scheme1(initial_state(grid, params),
                               StepPlan(grid, tg, dc, cfg))
        # node S=2 is interior row index 11
        assert sys.rows.lower[11] == pytest.approx(6.48, rel=1e-13)
        assert sys.rows.upper[11] == pytest.approx(6.48, rel=1e-13)
        assert sys.rows.diag[11] == pytest.approx(12.0 + 2 * 6.48, rel=1e-13)

    def test_reaction_load_when_equal(self, params, dc):
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.05, steps=20)
        cfg = SchemeConfig()
        st = initial_state(grid, params)
        sys = assemble_scheme1(st, StepPlan(grid, tg, dc, cfg))
        # U = V makes the reaction part collapse to b - a = d0
        np.testing.assert_allclose(sys.rhs, st.u[1:-1] / tg.dt + dc.d0,
                                   rtol=1e-13)

    def test_m_matrix_margin_is_inverse_dt(self, params, dc):
        grid = uniform_grid(0, 5, 24)
        tg = TimeGrid(dt=0.02, steps=50)
        cfg = SchemeConfig()
        sys = assemble_scheme1(initial_state(grid, params),
                               StepPlan(grid, tg, dc, cfg))
        assert check_m_matrix(sys) is True
        assert sys.rows.min_domination == pytest.approx(1.0 / tg.dt,
                                                        rel=1e-12)


class TestStepScheme1:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reaction_only_hand_values(self, params):
        dc = reaction_only_dc()
        grid = uniform_grid(0, 5, 6)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(left_bc=NATURAL, right_bc=NATURAL)
        st = GridState(0, np.zeros(7), np.zeros(7))
        nxt, _ = step(st, StepPlan(grid, tg, dc, cfg))
        np.testing.assert_allclose(nxt.u, 0.002, rtol=1e-13)
        np.testing.assert_allclose(nxt.v, 0.0, atol=1e-16)
        assert nxt.step_index == 1

    def test_v_frozen_where_equal(self, params, dc):
        grid = uniform_grid(0, 5, 12)
        tg = TimeGrid(dt=0.01, steps=100)
        cfg = SchemeConfig()
        st = initial_state(grid, params)
        nxt, _ = step(st, StepPlan(grid, tg, dc, cfg))
        np.testing.assert_array_equal(nxt.v, st.v)

    def test_translation_invariance(self, params, dc):
        grid = uniform_grid(0, 5, 40)
        tg = TimeGrid(dt=0.01, steps=100)
        delta = 0.7
        cfg = SchemeConfig()
        st = initial_state(grid, params)
        shifted = GridState(0, st.u + delta, st.v + delta)
        plan = StepPlan(grid, tg, dc, cfg)
        a, _ = step(st, plan)
        b, _ = step(shifted, plan)
        assert np.abs(b.u - a.u - delta).max() <= 1e-13
        assert np.abs(b.v - a.v - delta).max() <= 1e-13


class TestAssembleScheme2:
    def test_elimination_hand_values(self, params):
        dc = reaction_only_dc(sigma=0.3, a=1.0, b=1.02, c=12.0)
        grid = uniform_grid(0, 5, 6)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(scheme="imex_linearized")
        st = GridState(0, np.zeros(7), np.zeros(7))
        sys, (k_hat, e_hat, _) = assemble_scheme2(
            st, StepPlan(grid, tg, dc, cfg))
        np.testing.assert_allclose(k_hat, 22.0, rtol=1e-14)
        np.testing.assert_allclose(e_hat, -12.0, rtol=1e-14)
        coupling = 12.0 / 22.0  # w z / k_hat with w = 1, z = 12
        a_lo = sys.rows.lower
        b_up = sys.rows.upper
        np.testing.assert_allclose(
            sys.rows.diag, 10.0 + a_lo + b_up + 1.0 - coupling, rtol=1e-13)

    def test_reduced_domination_any_dt(self, params, dc):
        grid = uniform_grid(0, 5, 16)
        cfg = SchemeConfig(scheme="imex_linearized")
        st = initial_state(grid, params)
        for dt in (1e-4, 0.05, 0.5, 5.0):
            # a plan refuses a step past the horizon of its constants
            sys, _ = assemble_scheme2(
                st, StepPlan(grid, TimeGrid(dt=dt, steps=1),
                             replace(dc, horizon=max(dc.horizon, dt)), cfg))
            assert check_m_matrix(sys) is True
            assert sys.rows.min_domination > 0


class TestStepScheme2:
    def test_recovery_identity(self, params, dc):
        grid = uniform_grid(0, 5, 20)
        tg = TimeGrid(dt=0.02, steps=50)
        cfg = SchemeConfig(scheme="imex_linearized")
        st = initial_state(grid, params)
        plan = StepPlan(grid, tg, dc, cfg)
        _, (k_hat, e_hat, g) = assemble_scheme2(st, plan)
        nxt, _ = step(st, plan)
        lhs = e_hat * nxt.u + k_hat * nxt.v
        np.testing.assert_allclose(lhs, g, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reaction_only_v_relation(self, params):
        dc = reaction_only_dc()
        grid = uniform_grid(0, 5, 6)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(scheme="imex_linearized", left_bc=NATURAL,
                           right_bc=NATURAL)
        h_star = 0.5
        st = GridState(0, np.full(7, h_star), np.full(7, h_star))
        nxt, _ = step(st, StepPlan(grid, tg, dc, cfg))
        # (1/dt + z) v1 = v0/dt - z (1 - 0) + c + z u1 with z = c here
        z = dc.c
        expected_v = (h_star / tg.dt - z + dc.c + z * nxt.u) / (1 / tg.dt + z)
        np.testing.assert_allclose(nxt.v, expected_v, rtol=1e-14)

    def test_translation_invariance(self, params, dc):
        grid = uniform_grid(0, 5, 40)
        tg = TimeGrid(dt=0.01, steps=100)
        delta = -0.4
        cfg = SchemeConfig(scheme="imex_linearized")
        st = initial_state(grid, params)
        shifted = GridState(0, st.u + delta, st.v + delta)
        plan = StepPlan(grid, tg, dc, cfg)
        a, _ = step(st, plan)
        b, _ = step(shifted, plan)
        assert np.abs(b.u - a.u - delta).max() <= 1e-13
        assert np.abs(b.v - a.v - delta).max() <= 1e-13

    def test_one_step_agreement_with_scheme1(self, params, dc):
        # the two steppers differ by the linearization remainder O(dt^2)
        grid = uniform_grid(0, 5, 20)
        cfg = SchemeConfig()
        st = initial_state(grid, params)
        gaps = []
        for dt in (1e-3, 1e-4):
            tg = TimeGrid(dt=dt, steps=1)
            s1, _ = step(st, StepPlan(grid, tg, dc, cfg))
            s2, _ = step(st, StepPlan(grid, tg, dc, replace(
                cfg, scheme="imex_linearized")))
            gaps.append(max(np.abs(s1.u - s2.u).max(),
                            np.abs(s1.v - s2.v).max()))
        slope = math.log10(gaps[0] / gaps[1])
        assert slope >= 1.9


class TestBoundaries:
    def test_dirichlet_left(self, params, dc):
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(left_bc=lambda tau: 0.0)
        st = initial_state(grid, params)
        plan = StepPlan(grid, tg, dc, cfg)
        assert assemble_scheme1(st, plan).left_value == 0.0

    def test_natural_growth_when_equal(self, params, dc):
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(left_bc=NATURAL)
        st = initial_state(grid, params)
        out = assemble_scheme1(st, StepPlan(grid, tg, dc, cfg)).left_value
        assert out == pytest.approx(st.u[0] + tg.dt * dc.d0, abs=1e-15)

    def test_natural_fixed_point_when_a_equals_b(self, params):
        dc = reaction_only_dc(a=1.0, b=1.0, c=12.0)
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.1, steps=10)
        cfg = SchemeConfig(left_bc=NATURAL)
        st = GridState(0, np.full(11, 0.3), np.full(11, 0.3))
        plan = StepPlan(grid, tg, dc, cfg)
        assert assemble_scheme1(st, plan).left_value == 0.3

    def test_default_right_bc_value(self, params, dc):
        # an unset right edge holds its level-0 value gamma * h(s_max)
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.1, steps=10)
        held = params.gamma * float(payoff_call(params.s_max, params.strike))
        assert held == 3.0
        for scheme in ("imex_linear", "imex_linearized"):
            plan = StepPlan(grid, tg, dc, SchemeConfig(scheme=scheme))
            st = initial_state(grid, params)
            for _ in range(3):
                st, _ = step(st, plan)
                assert st.u[-1] == held

    def test_config_rejects_unknown_words(self):
        with pytest.raises(ValidationError, match="unknown scheme 'linear'"):
            SchemeConfig(scheme="linear")
        with pytest.raises(ValidationError, match="left_bc must be"):
            SchemeConfig(left_bc="dirichlet")


class TestRestriction:
    def test_ratio_value(self, params, dc):
        grid = uniform_grid(0, 5, 10)
        st = initial_state(grid, params)
        tg = TimeGrid(dt=0.1, steps=10)
        # U = V so both exponentials are 1
        plan = StepPlan(grid, tg, dc, SchemeConfig())
        assert restriction_ratio(st, plan) == pytest.approx(0.1 * 12.0)

    # a spread past the range of exp is named, not a raw OverflowError
    @pytest.mark.parametrize("u0,v0", [(0.0, 800.0), (800.0, 0.0)],
                             ids=["v_above", "u_above"])
    def test_overflowing_spread_is_numerical_error(self, dc, u0, v0):
        plan = StepPlan(uniform_grid(0, 5, 20), TimeGrid(0.05, 20), dc,
                        SchemeConfig())
        st = GridState(0, np.full(21, u0), np.full(21, v0))
        with pytest.raises(NumericalError) as exc:
            restriction_ratio(st, plan)
        assert str(exc.value) == ("restriction ratio overflows at "
                                  "max |U - V| = 8.000e+02")

    def test_warns_by_default(self, params):
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.5, steps=2)
        with pytest.warns(RuntimeWarning) as caught:
            res = solve_forward(params, grid, tg)
        # the warning names the line that asked for the run
        assert caught[0].filename == __file__
        assert res.diagnostics.restriction_max == pytest.approx(0.5 * 12.0)
        assert res.diagnostics.restriction_max_step == 0

    # Parameter sets from the acceptance criterion-9 box on which the
    # restriction ratio's math.exp overflows at the given step.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme,values,failing_step", [
        ("imex_linear", dict(sigma=0.5, mu=0.45, gamma=1.5, nu01=19.0,
                             nu10=6.0, strike=4.5, horizon=2.5, s_max=27.0),
         5),
        ("imex_linear", dict(sigma=0.05, mu=-0.45, gamma=8.0, nu01=12.0,
                             nu10=0.3, strike=3.5, horizon=2.5, s_max=42.0),
         2),
        ("imex_linearized", dict(sigma=0.05, mu=-0.45, gamma=8.0, nu01=12.0,
                                 nu10=0.3, strike=3.5, horizon=2.5,
                                 s_max=42.0),
         2),
    ])
    def test_overflow_is_solve_failure(self, scheme, values, failing_step):
        p = ModelParams(s_min=0.0, **values)
        grid = uniform_grid(p.s_min, p.s_max, 60)
        tg = time_grid_from_space(grid, p.horizon)
        with pytest.raises(SolveFailure) as exc:
            solve_forward(p, grid, tg, SchemeConfig(scheme=scheme))
        assert exc.value.step_index == failing_step
        assert isinstance(exc.value.__cause__, NumericalError)

    # A spread past the range of exp, handed to step (the march refuses it
    # above): numpy's overflow in exp, or the natural edge's OverflowError,
    # must not reach the caller; the level it would give is refused.  The
    # warning gate in pyproject.toml turns an escaped numpy warning into a
    # failure of this test.
    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    @pytest.mark.parametrize("u0,v0", [(0.0, 800.0), (800.0, 0.0)],
                             ids=["v_above", "u_above"])
    def test_overflowing_spread_refused_by_step(self, dc, scheme, u0, v0):
        plan = StepPlan(uniform_grid(0, 5, 20), TimeGrid(0.05, 20), dc,
                        SchemeConfig(scheme=scheme))
        st = GridState(0, np.full(21, u0), np.full(21, v0))
        with pytest.raises(ValidationError, match="non-finite entries"):
            step(st, plan)


class TestSolveForward:
    def test_trajectory_capture(self, params):
        grid = uniform_grid(0, 5, 12)
        tg = TimeGrid(dt=0.05, steps=20)
        config = SchemeConfig()
        res = solve_forward(params, grid, tg, config, capture_trajectory=True)
        assert len(res.trajectory) == 21
        assert res.trajectory[0].step_index == 0
        assert res.trajectory[-1].step_index == 20
        # the result keeps the plan it ran, scheme config included
        assert res.plan.config is config

    def test_constant_data_stays_constant(self, params):
        # independent RK4 endpoint, frozen from a 50-digit integration
        u_ref, v_ref = 1.0185780234971976, 1.0170385634329942
        grid = uniform_grid(0, 5, 16)
        tg = TimeGrid(dt=0.02, steps=50)
        const = lambda s, k: np.ones_like(np.asarray(s, dtype=float))
        # the linear stepper preserves constants to roundoff; the linearized
        # one treats interior and natural-edge nodes differently, leaving an
        # O(dt) profile
        spread_tol = {"imex_linear": 1e-13, "imex_linearized": 0.01 * tg.dt}
        for scheme in ("imex_linear", "imex_linearized"):
            res = solve_forward(params, grid, tg,
                                SchemeConfig(scheme=scheme, left_bc=NATURAL,
                                             right_bc=NATURAL), payoff=const)
            assert np.ptp(res.final_state.u) <= spread_tol[scheme]
            assert np.ptp(res.final_state.v) <= spread_tol[scheme]
            # endpoint within a first-order error of the reduced ODE
            assert abs(res.final_state.u[0] - u_ref) <= 1e-4
            assert abs(res.final_state.v[0] - v_ref) <= 1e-4

    # sigma = 1e8 swamps 1/dt in D = C - A - B, so the first rows lose
    # strict domination and have no sup-norm bound.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_lost_domination_is_solve_failure(self, params, scheme):
        p = replace(params, sigma=1e8)
        grid = uniform_grid(0, 5, 10)
        tg = time_grid_from_space(grid, p.horizon)
        with pytest.raises(SolveFailure, match="strict diagonal domination"
                           ) as exc:
            solve_forward(p, grid, tg, SchemeConfig(scheme=scheme))
        assert exc.value.step_index == 0

    def test_overflowing_spacing_is_solve_failure(self, params):
        # the rows of these hand-built grids overflow (the spacing 1e199
        # as it is squared, the nodes 1e155 and 1e200 as they are), and so
        # do those of the standard grid at sigma = 1.3e154; ModelParams
        # rejects such an s_max, a grid cannot
        routes = (solve_forward, implicit_oracle,
                  lambda p, g, tg: verify(p, g, tg, SchemeConfig()),
                  lambda p, g, tg: StepPlan(g, tg, derive_constants(p),
                                            SchemeConfig()))
        rows = "time step 0: non-finite diffusion rows"
        grid = uniform_grid(0, 1e200, 10)
        for route in routes:
            with pytest.raises(SolveFailure, match=rows) as exc:
                route(params, grid, TimeGrid(dt=0.1, steps=10))
            assert exc.value.step_index == 0
        # dt*c = 0.6 keeps the restriction, and the overflow is reported
        # once, as the failure, without a warning first
        for p, grid in ((params, grid), (params, uniform_grid(0, 1e155, 10)),
                        (params, tavella_randall_grid(0, 1e200, 2, 15, 10)),
                        (replace(params, sigma=1.3e154),
                         uniform_grid(0, 5, 20))):
            for route in routes:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SolveFailure, match=rows) as exc:
                        route(p, grid, TimeGrid(dt=0.05, steps=20))
                assert exc.value.step_index == 0

    def test_nonfinite_state_refused_before_rows(self, params):
        # gamma * payoff overflows the level-0 state, sigma**2 the rows and
        # nu01 the constants' discriminant: every route derives the
        # constants, then builds the state, then the rows, so all three
        # report the first that fails
        grid = uniform_grid(0, 5, 20)
        for p, message in (
                (replace(params, sigma=1.3e154, gamma=1e308),
                 "non-finite entries in grid state"),
                (replace(params, gamma=1e308, nu01=1e200),
                 "degenerate root pair: discriminant <= 0 or inf")):
            for route in (solve_forward, implicit_oracle,
                          lambda p, g, tg: verify(p, g, tg, SchemeConfig())):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValidationError) as exc:
                        route(p, grid, TimeGrid(dt=0.05, steps=20))
                assert str(exc.value) == message

    # step 3 puts an inf into U (through the solve, both schemes) or into
    # V alone (through G of the linearized recovery, at the S = 0 edge):
    # the level is refused at its own step, before its checks
    @pytest.mark.parametrize("scheme,layer", [
        ("imex_linear", "solve"), ("imex_linearized", "solve"),
        ("imex_linearized", "assemble_scheme2")])
    def test_nonfinite_level_refused_at_its_step(self, params, monkeypatch,
                                                 scheme, layer):
        original, seen = getattr(schemes, layer), []

        def poisoned(*args):
            out = original(*args)
            seen.append(out)
            if len(seen) == 4:
                if layer == "solve":
                    out[5] = np.inf
                else:
                    out[1][2][0] = np.inf
            return out

        monkeypatch.setattr(schemes, layer, poisoned)
        with pytest.raises(SolveFailure) as exc:
            solve_forward(params, uniform_grid(0, 5, 20),
                          TimeGrid(dt=0.05, steps=20),
                          SchemeConfig(scheme=scheme))
        assert exc.value.step_index == 3
        assert str(exc.value) == ("time step 3: non-finite entries in grid "
                                  "state")

    # both end at T = 1 but exceed the cap: 10,000 intervals x 1,001
    # steps, and 20 x 2**62 steps, a product that wraps to 0 in int64
    @pytest.mark.parametrize("intervals,tg", [
        (10_000, TimeGrid(dt=1 / 1001, steps=1001)),
        (20, TimeGrid(dt=2.0 ** -62, steps=np.int64(2 ** 62)))],
        ids=["python_int", "numpy_int"])
    def test_runaway_time_grid_refused(self, params, monkeypatch, intervals,
                                       tg):
        # each route refuses them before a level is stepped
        def no_level(*_):
            raise AssertionError("a level ran")

        monkeypatch.setattr(schemes, "_advance", no_level)
        grid = uniform_grid(0, 5, intervals)
        for route in (solve_forward,
                      lambda p, g, t: verify(p, g, t, SchemeConfig()),
                      lambda p, g, t: StepPlan(g, t, derive_constants(p),
                                               SchemeConfig())):
            with pytest.raises(ValidationError, match=r"intervals x steps > "
                                                      r"MAX_CELLS = 10000000"):
                route(params, grid, tg)

    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_step_is_one_level_of_the_march(self, params, dc, scheme):
        grid, tg = uniform_grid(0, 5, 20), TimeGrid(dt=0.05, steps=20)
        config = SchemeConfig(scheme=scheme)
        march = solve_forward(params, grid, tg, config,
                              capture_trajectory=True).trajectory
        plan = StepPlan(grid, tg, dc, config)
        state = initial_state(grid, params)
        for level in march:  # bit for bit, signed zeros included
            assert state.step_index == level.step_index
            assert state.u.tobytes() == level.u.tobytes()
            assert state.v.tobytes() == level.v.tobytes()
            if level.step_index < tg.steps:
                state, _ = step(state, plan)

    def test_diagnostics_clean_on_table_run(self, params):
        grid = uniform_grid(0, 5, 60)
        tg = TimeGrid(dt=1 / 24, steps=24)
        for scheme in ("imex_linear", "imex_linearized"):
            res = solve_forward(params, grid, tg, SchemeConfig(scheme=scheme))
            d = res.diagnostics
            assert d.m_matrix_ok
            assert d.solves == 24
            assert d.bound_margin >= -1e-9
            assert d.restriction_max <= schemes.RESTRICTION_SLACK

    # what checking the M-matrix conditions at every level records; the
    # once-per-run imex_linear check must record the same
    @pytest.mark.parametrize("scheme,min_d", [
        ("imex_linear", 23.999999999999993),
        ("imex_linearized", 24.66666666666665)])
    def test_diagnostics_pinned(self, params, scheme, min_d):
        grid = uniform_grid(0, 5, 60)
        tg = TimeGrid(dt=1 / 24, steps=24)
        d = solve_forward(params, grid, tg,
                          SchemeConfig(scheme=scheme)).diagnostics
        assert (d.solves, d.min_d, d.min_d_step, d.bound_margin,
                d.bound_margin_step) == (24, min_d, 0, 0.0, 0)

    # imex_linear rows are fixed for the run, imex_linearized ones are not
    @pytest.mark.parametrize("scheme,calls", [("imex_linear", 1),
                                              ("imex_linearized", 24)])
    def test_m_matrix_checks_per_run(self, params, monkeypatch, scheme,
                                     calls):
        seen = []

        def counted(sys):
            seen.append(sys)
            return check_m_matrix(sys)

        monkeypatch.setattr(schemes, "check_m_matrix", counted)
        grid = uniform_grid(0, 5, 60)
        solve_forward(params, grid, TimeGrid(dt=1 / 24, steps=24),
                      SchemeConfig(scheme=scheme))
        assert len(seen) == calls

    # the plan's rows are eliminated once, and only where they are solved
    # (imex_linear); the facts of A and B are worked out once per plan,
    # every level's rows sharing them; the domination and its minimum are
    # worked out once per row set checked (imex_linearized solves new
    # rows, without caching an elimination, at every level).  verify's
    # three runs share one plan, so only the linearized rows are new for
    # each run.
    @pytest.mark.parametrize("scheme,per_run", [("imex_linear", 1),
                                                ("imex_linearized", 24)])
    def test_row_factors_once_per_row_set(self, params, monkeypatch, scheme,
                                          per_run):
        names = ("elimination", "off_diagonals", "domination",
                 "min_domination")
        counts = dict.fromkeys(names, 0)
        for name in counts:
            compute = getattr(TridiagonalRows, name).func

            def counted(rows, compute=compute, name=name):
                counts[name] += 1
                return compute(rows)

            prop = functools.cached_property(counted)
            prop.__set_name__(TridiagonalRows, name)
            monkeypatch.setattr(TridiagonalRows, name, prop)
        grid, tg = uniform_grid(0, 5, 60), TimeGrid(dt=1 / 24, steps=24)
        linear = scheme == "imex_linear"
        for route, per_plan in ((solve_forward, per_run),
                                (verify, per_run if linear else 3 * per_run)):
            counts.update(dict.fromkeys(names, 0))
            route(params, grid, tg, SchemeConfig(scheme=scheme))
            assert counts == {"elimination": int(linear),
                              "off_diagonals": 1, "domination": per_plan,
                              "min_domination": per_plan}
        # the implicit oracle reads the plan's rows but never solves them
        counts["elimination"] = 0
        implicit_oracle(params, uniform_grid(0, 5, 16),
                        TimeGrid(dt=0.1, steps=2), SchemeConfig(scheme=scheme))
        assert counts["elimination"] == 0
