"""Stepper assembly, boundary rules, marching, and structural invariants."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from liqshock import (
    NATURAL,
    DerivedConstants,
    GridState,
    ModelParams,
    SchemeConfig,
    SolveFailure,
    StepPlan,
    TimeGrid,
    ValidationError,
    assemble_scheme1,
    assemble_scheme2,
    check_m_matrix,
    derive_constants,
    initial_state,
    payoff_call,
    restriction_ratio,
    solve_forward,
    step,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            GridState(0, np.array([1.0, np.inf]), np.array([0.0, 0.0]))
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
            for name in ("lower", "upper", "diag"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(plan, name)[0] = 1.0
                with pytest.raises(FrozenInstanceError):
                    setattr(plan, name, np.ones(11))
            st, first = step(initial_state(grid, params), plan)
            _, second = step(st, plan)
            assert first.lower is plan.lower
            assert second.lower is plan.lower

    def test_three_point_weights_at_tavella_node(self, params, dc):
        grid = tavella_randall_grid(0, 5, 2, 1.0, 12)
        assert not grid.uniform
        plan = StepPlan(grid, TimeGrid(dt=0.1, steps=10), dc, SchemeConfig())
        s, i = grid.nodes, 6  # node i is interior row i - 1
        hl, hr = s[i] - s[i - 1], s[i + 1] - s[i]
        ssq = 0.3 ** 2 * s[i] ** 2
        lower, upper = plan.lower[i - 1], plan.upper[i - 1]
        assert lower == pytest.approx(ssq / (hl * (hl + hr)), rel=1e-14)
        assert upper == pytest.approx(ssq / (hr * (hl + hr)), rel=1e-14)
        assert plan.diag[i - 1] == pytest.approx(10.0 + lower + upper,
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
        assert sys.lower[11] == pytest.approx(6.48, rel=1e-13)
        assert sys.upper[11] == pytest.approx(6.48, rel=1e-13)
        assert sys.diag[11] == pytest.approx(12.0 + 2 * 6.48, rel=1e-13)

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
        rep = check_m_matrix(sys)
        assert rep.satisfied
        assert rep.min_d == pytest.approx(1.0 / tg.dt, rel=1e-12)


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
        a_lo = sys.lower
        b_up = sys.upper
        np.testing.assert_allclose(
            sys.diag, 10.0 + a_lo + b_up + 1.0 - coupling, rtol=1e-13)

    def test_reduced_domination_any_dt(self, params, dc):
        grid = uniform_grid(0, 5, 16)
        cfg = SchemeConfig(scheme="imex_linearized")
        st = initial_state(grid, params)
        for dt in (1e-4, 0.05, 0.5, 5.0):
            sys, _ = assemble_scheme2(
                st, StepPlan(grid, TimeGrid(dt=dt, steps=1), dc, cfg))
            assert check_m_matrix(sys).satisfied
            assert check_m_matrix(sys).min_d > 0


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

    def test_warns_by_default(self, params):
        grid = uniform_grid(0, 5, 10)
        tg = TimeGrid(dt=0.5, steps=2)
        with pytest.warns(RuntimeWarning):
            res = solve_forward(params, grid, tg)
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
        assert isinstance(exc.value.__cause__, OverflowError)


class TestSolveForward:
    def test_trajectory_capture(self, params):
        grid = uniform_grid(0, 5, 12)
        tg = TimeGrid(dt=0.05, steps=20)
        res = solve_forward(params, grid, tg, capture_trajectory=True)
        assert len(res.trajectory) == 21
        assert res.trajectory[0].step_index == 0
        assert res.trajectory[-1].step_index == 20

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spacing_is_solve_failure(self, params):
        # squaring the spacing 1e199 of this uniform grid overflows
        p = replace(params, s_max=1e200)
        grid = uniform_grid(0, p.s_max, 10)
        with pytest.raises(SolveFailure) as exc:
            solve_forward(p, grid, TimeGrid(dt=0.1, steps=10))
        assert exc.value.step_index == 0
        assert isinstance(exc.value.__cause__, OverflowError)

    def test_diagnostics_clean_on_table_run(self, params):
        grid = uniform_grid(0, 5, 60)
        tg = TimeGrid(dt=1 / 24, steps=24)
        for scheme in ("imex_linear", "imex_linearized"):
            res = solve_forward(params, grid, tg, SchemeConfig(scheme=scheme))
            d = res.diagnostics
            assert d.m_matrix_ok
            assert d.solves == 24
            assert d.bound_margin >= -1e-9
            assert d.restriction_ok
