"""Extrapolation, study ladders, oracles, and audit machinery."""

import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from liqshock import (
    NATURAL,
    AuditReport,
    DerivedConstants,
    LiqshockError,
    ModelParams,
    OracleConvergenceError,
    SchemeConfig,
    SolveFailure,
    StepPlan,
    TimeGrid,
    ValidationError,
    at_the_money,
    audit_comparison,
    audit_sup_bound,
    audit_m_matrix,
    audit_positivity,
    audit_translation,
    convergence_study,
    convergence_tables,
    derive_constants,
    extrapolated_study,
    implicit_oracle,
    initial_state,
    ode_oracle,
    payoff_call,
    payoff_zero,
    richardson,
    solve_forward,
    step,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
    verify,
)
from liqshock.analysis import _rows_from_values

# frozen 50-digit reference for the constant-data reduced system, h*=1
ODE_U_REF = 1.0185780234971976
ODE_V_REF = 1.0170385634329942


@pytest.fixture
def params():
    return ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                       strike=2.0, horizon=1.0, s_min=0.0, s_max=5.0)


def constant_payoff(s, k):
    return np.ones_like(np.asarray(s, dtype=float))


class TestRichardson:
    def test_fixed_point(self):
        assert richardson(0.7, 0.7) == 0.7

    def test_table_pair(self):
        y = richardson(0.2451080, 0.2465578)
        assert y == pytest.approx(0.2480076, abs=1e-10)

    def test_arithmetic(self):
        assert richardson(1.0, 1.5) == 2.0

    def test_exact_on_affine_data(self):
        limit, slope = 0.42, 3.7
        for dt in (0.1, 0.01):
            z = limit + slope * dt
            w = limit + slope * dt / 2
            assert richardson(z, w) == pytest.approx(limit, abs=1e-14)


class TestRowMath:
    def test_table_style_ratio(self):
        # successive differences 7.70e-4 and 3.11e-4 give the printed
        # ratio/order pair 2.48 (1.31)
        rows = _rows_from_values([30, 60, 120],
                                 [0.0, 7.70e-4, 7.70e-4 + 3.11e-4])
        assert rows[0].difference is None and rows[0].ratio is None
        assert rows[1].difference == pytest.approx(7.70e-4)
        assert rows[2].ratio == pytest.approx(2.476, abs=2e-3)
        assert rows[2].order == pytest.approx(1.308, abs=2e-3)

    def test_constant_values(self):
        rows = _rows_from_values([10, 20, 40], [1.0, 1.0, 1.0])
        assert rows[1].difference == 0.0
        assert rows[2].ratio is None and rows[2].order is None


class TestStudies:
    def test_levels_must_double(self, params, monkeypatch):
        import liqshock.analysis as analysis_mod
        runs = []
        monkeypatch.setattr(analysis_mod, "solve_forward",
                            lambda *args, **kw: runs.append(args))
        with pytest.raises(ValidationError):
            convergence_study(params, "imex_linear", "uniform", [30, 50])
        with pytest.raises(ValidationError, match="at least one level"):
            convergence_study(params, "imex_linear", "uniform", [])
        with pytest.raises(ValidationError, match="unknown grid kind"):
            convergence_study(params, "imex_linear", "chebyshev", [30])
        # 8000 x 3200 cells are too many: refused before level 4000 runs
        with pytest.raises(ValidationError,
                           match="intervals x steps > MAX_CELLS"):
            convergence_tables(params, "imex_linear", "uniform", [4000, 8000])
        # 3840 x 1536 cells fit, but not the 3840 x 3072 of the dt/2 twin
        with pytest.raises(ValidationError,
                           match="intervals x steps > MAX_CELLS"):
            extrapolated_study(params, "imex_linear", "uniform", [3840])
        assert runs == []
        assert len(analysis_mod._level_grids(params, "uniform", [3840],
                                             15.0)) == 1

    def test_small_ladder_monotone(self, params):
        rows = convergence_study(params, "imex_linear", "uniform",
                                 [30, 60, 120])
        values = [r.value for r in rows]
        assert values[0] < values[1] < values[2] < 0.26
        assert rows[2].order is not None

    def test_tables_share_solves(self, params):
        count = []
        tables = convergence_tables(params, "imex_linear", "uniform",
                                    [30, 60], on_result=count.append)
        assert len(count) == 2
        assert len(tables["r0"]) == 2 and len(tables["r1"]) == 2
        assert tables["r1"][0].value < tables["r0"][0].value

    @pytest.mark.parametrize("study", [convergence_tables,
                                       extrapolated_study])
    def test_ladder_holds_one_run(self, params, study):
        # a run is freed once its values are read, before the next marches
        refs, live = [], []

        def on_result(run):
            live.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(run))

        study(params, "imex_linear", "uniform", [40, 80, 160],
              on_result=on_result)
        assert live == [0] * (3 if study is convergence_tables else 6)

    def test_ladder_passes_each_run_before_the_next(self, params,
                                                    monkeypatch):
        import liqshock.analysis as analysis_mod
        events = []

        def marching(p, grid, tg, config):
            events.append(("march", grid.intervals, tg))
            return solve_forward(p, grid, tg, config)

        monkeypatch.setattr(analysis_mod, "solve_forward", marching)
        extrapolated_study(params, "imex_linear", "uniform", [40, 80, 160],
                           on_result=lambda run: events.append(
                               ("seen", run.plan.grid.intervals,
                                run.plan.tg)))
        expected = []
        for lvl in (40, 80, 160):
            tg = time_grid_from_space(
                uniform_grid(params.s_min, params.s_max, lvl), params.horizon)
            for t in (tg, TimeGrid(tg.dt / 2, 2 * tg.steps)):
                expected += [("march", lvl, t), ("seen", lvl, t)]
        assert events == expected

    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_ladder_values_match_standalone_runs(self, params, scheme):
        levels = [40, 80, 160]
        tables = convergence_tables(params, scheme, "uniform", levels)
        rows = extrapolated_study(params, scheme, "uniform", levels)
        config = SchemeConfig(scheme=scheme)
        for k, lvl in enumerate(levels):
            grid = uniform_grid(params.s_min, params.s_max, lvl)
            tg = time_grid_from_space(grid, params.horizon)
            run = solve_forward(params, grid, tg, config)
            twin = solve_forward(params, grid,
                                 TimeGrid(tg.dt / 2, 2 * tg.steps), config)
            assert tables["r0"][k].value == at_the_money(run)
            assert tables["r1"][k].value == at_the_money(run, "r1")
            assert rows[k].coarse_value == at_the_money(run)
            assert rows[k].fine_value == at_the_money(twin)
            assert rows[k].extrapolated == richardson(at_the_money(run),
                                                      at_the_money(twin))

    def test_tavella_ladder_runs(self, params):
        rows = convergence_study(params, "imex_linear", "tavella", [30, 60],
                                 alpha=15.0)
        assert all(np.isfinite(r.value) for r in rows)

    def test_extrapolated_rows(self, params):
        rows = extrapolated_study(params, "imex_linear", "uniform",
                                  [40, 80, 160])
        for row in rows:
            assert row.extrapolated == pytest.approx(
                richardson(row.coarse_value, row.fine_value), abs=1e-15)
        assert rows[2].order is not None
        # extrapolated values settle much faster than the raw ones
        assert abs(rows[2].extrapolated - rows[1].extrapolated) < \
            abs(rows[2].fine_value - rows[1].fine_value)


class TestOdeOracle:
    def test_stationary_when_drift_free(self):
        # mu = 0 makes b = a, so constant data is a fixed point
        p = ModelParams(sigma=0.3, mu=0.0, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        u, v = ode_oracle(p, 0.7, dt_ref=1e-4)
        assert u == pytest.approx(0.7, abs=1e-13)
        assert v == pytest.approx(0.7, abs=1e-13)

    def test_short_horizon_expansion(self):
        p = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=0.01)
        u, v = ode_oracle(p, 1.0, dt_ref=1e-5)
        assert u == pytest.approx(1.0002, abs=5e-6)

    def test_matches_frozen_reference(self, params):
        u, v = ode_oracle(params, 1.0, dt_ref=1e-4)
        assert u == pytest.approx(ODE_U_REF, abs=1e-11)
        assert v == pytest.approx(ODE_V_REF, abs=1e-11)

    def test_fourth_order_self_convergence(self, params):
        vals = [ode_oracle(params, 1.0, dt_ref=dt)
                for dt in (0.05, 0.025, 0.0125)]
        d1 = max(abs(vals[0][0] - vals[1][0]), abs(vals[0][1] - vals[1][1]))
        d2 = max(abs(vals[1][0] - vals[2][0]), abs(vals[1][1] - vals[2][1]))
        assert 12.0 <= d1 / d2 <= 28.0

    def test_rejects_nonpositive_step(self, params):
        for dt_ref in (0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="dt must be > 0 and finite"):
                ode_oracle(params, 1.0, dt_ref=dt_ref)
        # T/dt_ref is inf or 1e300 steps: refused before the first
        for dt_ref in (5e-324, 1e-300):
            with pytest.raises(ValidationError, match="MAX_CELLS"):
                ode_oracle(params, 1.0, dt_ref=dt_ref)
        # the start value gamma * h_star must be finite too
        for p, h_star in ((params, math.nan), (params, math.inf),
                          (replace(params, gamma=1e308), 10.0)):
            with pytest.raises(ValidationError, match="h_star must be finite"):
                ode_oracle(p, h_star, dt_ref=0.01)

    def test_steps_as_the_time_grid_cuts_them(self, params):
        # a dt a hair under 1/20 is 20 steps of a time grid, so of the oracle
        dt = 1 / (20 * (1 + 1e-10))
        assert time_grid_from_space(uniform_grid(0, 5, 2), 1.0, dt).steps == 20
        assert ode_oracle(params, 1.0, dt) == ode_oracle(params, 1.0, 1 / 20)

    # RK4 leaves the float range: math.exp raises OverflowError on the
    # first two, and on the third the stage arithmetic overflows, making U
    # -inf with no exception
    @pytest.mark.parametrize("nu01,nu10,dt_ref,at", [
        (20.0, 20.0, 0.1, 5), (50.0, 50.0, 0.05, 4), (889.0, 12.0, 0.1, 1)])
    def test_leaving_the_float_range_is_refused(self, params, nu01, nu10,
                                                dt_ref, at):
        p = replace(params, nu01=nu01, nu10=nu10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleConvergenceError) as exc:
                ode_oracle(p, 0.0, dt_ref)
        assert str(exc.value) == f"RK4 step {at} left the float range"


class TestImplicitOracle:
    def test_size_guard(self, params):
        grid = uniform_grid(0, 5, 128)
        with pytest.raises(ValidationError):
            implicit_oracle(params, grid, TimeGrid(dt=0.1, steps=10))

    def test_stalled_newton_raises(self, params, monkeypatch):
        import liqshock.analysis as analysis_mod
        monkeypatch.setattr(analysis_mod, "ORACLE_MAX_ITER", 0)
        grid = uniform_grid(0, 5, 8)
        with pytest.raises(OracleConvergenceError, match="stalled"):
            implicit_oracle(params, grid, TimeGrid(dt=0.1, steps=1))

    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_nan_residual_ends_the_level(self, params, monkeypatch, scheme):
        # diffusion of the level-0 state at gamma = 1e307 overflows to
        # inf - inf: no Newton step can lower a NaN residual
        solves, dense = [], np.linalg.solve

        def counted(*args):
            solves.append(args)
            return dense(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        with pytest.raises(OracleConvergenceError) as exc:
            implicit_oracle(replace(params, gamma=1e307),
                            uniform_grid(0, 5, 20), TimeGrid(0.05, 20),
                            SchemeConfig(scheme))
        assert str(exc.value) == "implicit step stalled at residual nan"
        assert len(solves) <= 1

    def test_damped_step_converges(self, monkeypatch):
        # The fourth draw of default_rng(3) from the criterion-9 box: the
        # full Newton step does not lower the residual, so it is halved.
        rng = np.random.default_rng(3)
        box = [("sigma", 0.05, 1.0), ("mu", -0.5, 0.5), ("gamma", 0.1, 10.0),
               ("nu01", 0.01, 20.0), ("nu10", 0.01, 20.0),
               ("strike", 0.5, 10.0), ("horizon", 0.1, 3.0),
               ("s_max", 11.0, 50.0)]
        p = [ModelParams(s_min=0.0, **{key: float(rng.uniform(lo, hi))
                                       for key, lo, hi in box})
             for _ in range(4)][-1]
        grid = uniform_grid(p.s_min, p.s_max, 20)
        tg = TimeGrid(p.horizon / 4, 4)
        cfg = SchemeConfig("imex_linearized")
        # each residual takes two np.exp, each Newton iteration one solve
        exps, solves, exp, dense = [], [], np.exp, np.linalg.solve

        def counted_exp(x):
            exps.append(x)
            return exp(x)

        def counted_solve(*args):
            solves.append(args)
            return dense(*args)

        monkeypatch.setattr(np, "exp", counted_exp)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        base = implicit_oracle(p, grid, tg, cfg)
        # the trial residuals, less each level's first: one per Newton
        # iteration, and one more for each refused step, of which there
        # are two, each accepted once halved
        assert len(exps) // 2 - tg.steps - len(solves) == 2
        # lifting the payoff by delta / gamma lifts U and V by delta
        delta = 0.25
        lifted = implicit_oracle(p, grid, tg, cfg, payoff=lambda s, k:
                                 payoff_call(s, k) + delta / p.gamma)
        assert np.abs(lifted.u - base.u - delta).max() <= 1e-12
        assert np.abs(lifted.v - base.v - delta).max() <= 1e-12

    def test_linear_regime_matches_scheme1(self, params, monkeypatch):
        # with the reaction switched off both reduce to implicit diffusion
        dc0 = DerivedConstants(d0=0.0, a=0.0, b=0.0, c=0.0, lambda1=1.0,
                               lambda2=0.5, sigma=0.3, horizon=1.0)
        grid = uniform_grid(0, 5, 16)
        tg = TimeGrid(dt=0.05, steps=3)
        cfg = SchemeConfig(left_bc=lambda tau: 0.0, right_bc=lambda tau: 3.0)
        plan = StepPlan(grid, tg, dc0, cfg)
        state = initial_state(grid, params)
        for _ in range(tg.steps):
            state, _ = step(state, plan)

        import liqshock.schemes as schemes_mod
        monkeypatch.setattr(schemes_mod, "derive_constants", lambda p: dc0)
        oracle = implicit_oracle(params, grid, tg, cfg)
        np.testing.assert_allclose(oracle.u, state.u, atol=1e-11)
        np.testing.assert_allclose(oracle.v, state.v, atol=1e-11)

    def test_cross_oracle_constant_data(self, params):
        grid = uniform_grid(0, 5, 8)
        tg = TimeGrid(dt=1 / 128, steps=128)
        cfg = SchemeConfig(left_bc=NATURAL, right_bc=NATURAL)
        state = implicit_oracle(params, grid, tg, cfg, payoff=constant_payoff)
        assert np.ptp(state.u) == pytest.approx(0.0, abs=1e-12)
        assert abs(state.u[0] - ODE_U_REF) <= 1e-8
        assert abs(state.v[0] - ODE_V_REF) <= 1e-8

    def test_one_step_from_zero_second_order(self, params):
        grid = uniform_grid(0, 5, 32)
        cfg = SchemeConfig(scheme="imex_linearized")
        gaps = []
        for dt in (1e-2, 1e-3, 1e-4):
            tg = TimeGrid(dt=dt, steps=1)
            lin = solve_forward(params, grid, tg, cfg, payoff=payoff_zero)
            oracle = implicit_oracle(params, grid, tg, cfg, payoff=payoff_zero)
            gaps.append(max(np.abs(lin.final_state.u - oracle.u).max(),
                            np.abs(lin.final_state.v - oracle.v).max()))
        slope = math.log10(gaps[0] / gaps[-1]) / 2.0
        assert slope >= 1.9
        # the finer pair sits on the asymptotic second-order branch
        assert math.log10(gaps[1] / gaps[2]) == pytest.approx(2.0, abs=0.05)


class TestAudits:
    @pytest.fixture
    def run_pair(self, params):
        grid = uniform_grid(0, 5, 48)
        tg = time_grid_from_space(grid, params.horizon)
        base = solve_forward(params, grid, tg, capture_trajectory=True)
        shifted = solve_forward(params, grid, tg,
                                payoff=lambda s, k: payoff_call(s, k) + 0.1,
                                capture_trajectory=True)
        return base, shifted

    def test_comparison_sharp_shift(self, run_pair):
        base, shifted = run_pair
        check = audit_comparison(shifted, base)
        assert check.passed
        # translation invariance makes the gap exactly the shift
        assert check.worst == pytest.approx(0.1, abs=1e-13)

    def test_translation_exact(self, run_pair):
        base, shifted = run_pair
        check = audit_translation(base, shifted, 0.1)
        assert check.passed
        assert check.worst <= 1e-12

    def test_comparison_call_vs_zero(self, params):
        grid = uniform_grid(0, 5, 48)
        tg = time_grid_from_space(grid, params.horizon)
        call = solve_forward(params, grid, tg, capture_trajectory=True)
        zero = solve_forward(params, grid, tg, payoff=payoff_zero,
                             capture_trajectory=True)
        check = audit_comparison(call, zero)
        assert check.passed

    def test_positivity_pass_on_lifted_payoff(self, params):
        # payoff bounded away from zero keeps prices clearly positive
        grid = uniform_grid(0, 5, 32)
        tg = time_grid_from_space(grid, params.horizon)
        lifted = solve_forward(params, grid, tg,
                               payoff=lambda s, k: payoff_call(s, k) + 1.0,
                               capture_trajectory=True)
        check = audit_positivity(lifted)
        assert check.passed
        assert check.worst > 0.9

    def test_positivity_reports_boundary_dip(self, params):
        # the explicit reaction update undershoots the exact zero-payoff
        # profile at the degenerate edge by O(dt), which this audit surfaces
        grid = uniform_grid(0, 5, 48)
        tg = time_grid_from_space(grid, params.horizon)
        run = solve_forward(params, grid, tg, capture_trajectory=True)
        check = audit_positivity(run)
        assert not check.passed
        assert -1e-3 < check.worst < -1e-10
        assert check.location is not None

    def test_diagnostics_audits(self, run_pair):
        base, _ = run_pair
        assert audit_m_matrix(base).passed
        assert audit_sup_bound(base).passed

    def test_verify_recipe(self, params):
        # the verify recipe: six checks in CLI order, where only the known
        # O(dt) positivity dip fails
        grid = uniform_grid(0, 5, 48)
        tg = time_grid_from_space(grid, params.horizon)
        for scheme in ("imex_linear", "imex_linearized"):
            report = verify(params, grid, tg, SchemeConfig(scheme=scheme))
            assert [c.name for c in report.checks] == [
                "positivity", "comparison(h+0.1)", "comparison(call vs 0)",
                "translation", "m_matrix", "sup_bound"]
            assert [c.passed for c in report.checks] == [False] + [True] * 5
            assert not report.passed
            assert report.restriction_ok
            assert len(report.lines()) == 6

    def test_restriction_flagged_on_coarse_run(self, params):
        # dt * c = 3 violates the explicit-reaction restriction
        grid = uniform_grid(0, 5, 12)
        tg = TimeGrid(dt=0.25, steps=4)
        with pytest.warns(RuntimeWarning):
            run = solve_forward(params, grid, tg, capture_trajectory=True)
        report = AuditReport(checks=[audit_m_matrix(run)],
                             restriction_max=run.diagnostics.restriction_max)
        assert not report.restriction_ok
        assert report.restriction_max > 2.0
        assert any("restriction" in line for line in report.lines())

    def test_restriction_warning_names_verify_caller(self, params):
        grid = uniform_grid(0, 5, 12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verify(params, grid, TimeGrid(dt=0.25, steps=4), SchemeConfig())
        # one per step of each of the three runs, each naming this line
        assert len(caught) == 12
        assert {w.filename for w in caught} == {__file__}
        # the ladders name their caller too: at levels 10 and 20 the slaved
        # dt gives dt*c = 3 and 1.5, so every step of those runs warns, and
        # the dt/2 twins give 1.5 and 0.75
        for study, warned in ((extrapolated_study, 4 + 8 + 8),
                              (convergence_tables, 4 + 8),
                              (convergence_study, 4 + 8)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                study(params, "imex_linear", "uniform", [10, 20])
            assert len(caught) == warned
            assert {w.filename for w in caught} == {__file__}

    def test_overshooting_time_grid_refused(self, params):
        # 5 steps of 1/4.8 end at tau = 1.0417 > T = 1: refused before any
        # level is stepped (which would warn, dt * c = 2.5)
        grid = uniform_grid(0, 5, 12)
        over = TimeGrid(dt=1 / 4.8, steps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (solve_forward,
                          lambda *args: verify(*args, SchemeConfig()),
                          implicit_oracle,
                          lambda p, g, tg: StepPlan(g, tg, derive_constants(p),
                                                    SchemeConfig())):
                with pytest.raises(ValidationError,
                                   match="5 steps of dt=.* overshoot the "
                                         "horizon 1.0"):
                    route(params, grid, over)
        # short of the horizon, or past it by no more than the roundoff
        # to_prices forgives, a grid runs, and its audits find every time
        for tg in (TimeGrid(dt=1 / 24, steps=12),
                   TimeGrid(dt=(1 + 4e-13) / 24, steps=24)):
            assert len(verify(params, grid, tg, SchemeConfig()).checks) == 6

    def test_long_horizon_roundoff_runs(self, params):
        # dt = T / J of a long horizon overshoots T by an ulp of T, here
        # 3.6e-12, beyond an absolute 1e-12: the plan and the positivity
        # audit's to_prices forgive it by one rule, relative to T
        p = replace(params, nu10=1.0, horizon=27665.734685534153)
        grid = uniform_grid(0, 5, 10)
        tg = time_grid_from_space(grid, p.horizon, 8.442397)
        assert p.horizon - tg.steps * tg.dt == pytest.approx(-3.6e-12,
                                                             rel=0.01)
        config = SchemeConfig(scheme="imex_linearized")
        with pytest.warns(RuntimeWarning, match="restriction"):
            report = verify(p, grid, tg, config)
        assert report.checks[0].name == "positivity"
        assert len(report.checks) == 6

    @pytest.mark.filterwarnings("ignore:reaction time-step:RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_verify_lifts_dirichlet_edges(self, params, scheme):
        # the call + 0.1 run's data are lifted by 0.1 gamma, its Dirichlet
        # edge values too, so translation holds to roundoff
        p = replace(params, gamma=2.5)
        grid = uniform_grid(0, 5, 40)
        tg = time_grid_from_space(grid, p.horizon)
        zero = lambda tau: 0.0
        for config in (SchemeConfig(scheme, left_bc=zero),
                       SchemeConfig(scheme, left_bc=zero,
                                    right_bc=lambda tau: 7.5)):
            translation = verify(p, grid, tg, config).checks[3]
            assert translation.name == "translation"
            assert translation.passed and translation.worst <= 1e-14

    # The zero run holds a Dirichlet edge at its own level-0 value, 0,
    # so it is zero data.  Given the call run's edge value 3 instead, its
    # spread |U - V| at that edge broke the restriction (1.26 on
    # imex_linear) and added a [WARN] line; the six check lines stay.
    @pytest.mark.parametrize("scheme,lines", [
        ("imex_linear", [
            "[FAIL] positivity: worst -3.638e-04 at (level,node)=(1, 0)",
            "[PASS] comparison(h+0.1): worst 1.000e-01 at (level,node)=(11, 29)",
            "[PASS] comparison(call vs 0): worst 0.000e+00 at (level,node)=(0, 0)",
            "[PASS] translation: worst 9.714e-16 at (level,node)=(8, 37)",
            "[PASS] m_matrix: worst 1.600e+01 at (level,node)=(0,)",
            "[PASS] sup_bound: worst 0.000e+00 at (level,node)=(0,)"]),
        ("imex_linearized", [
            "[FAIL] positivity: worst -1.277e-05 at (level,node)=(1, 4)",
            "[PASS] comparison(h+0.1): worst 1.000e-01 at (level,node)=(9, 32)",
            "[PASS] comparison(call vs 0): worst 0.000e+00 at (level,node)=(0, 0)",
            "[PASS] translation: worst 1.416e-15 at (level,node)=(4, 38)",
            "[PASS] m_matrix: worst 1.657e+01 at (level,node)=(0,)",
            "[PASS] sup_bound: worst 0.000e+00 at (level,node)=(0,)"]),
    ])
    def test_verify_zero_run_holds_dirichlet_edges(self, params, scheme,
                                                   lines):
        grid = uniform_grid(0, 5, 40)
        tg = time_grid_from_space(grid, params.horizon)
        config = SchemeConfig(scheme, right_bc=lambda tau: 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no restriction warning either
            report = verify(params, grid, tg, config)
        assert report.restriction_max <= 1
        assert report.lines() == lines  # and no [WARN] line

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_requires_trajectory(self, params):
        grid = uniform_grid(0, 5, 48)
        tg = time_grid_from_space(grid, params.horizon)
        run = solve_forward(params, grid, tg)
        with pytest.raises(ValidationError):
            audit_positivity(run)
        # the pairwise audits also need both runs on one grid and partition
        captured = solve_forward(params, grid, tg, capture_trajectory=True)
        with pytest.raises(ValidationError, match="translation audit needs"):
            audit_translation(captured, run, 0.0)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="delta must be finite"):
                audit_translation(captured, captured, delta)
        other = uniform_grid(0, 5, 96)
        coarse = solve_forward(params, other,
                               time_grid_from_space(other, params.horizon),
                               capture_trajectory=True)
        # equal counts are not enough: other nodes, or other time levels
        uniform = uniform_grid(0, 5, 20)
        tg20 = time_grid_from_space(uniform, params.horizon)
        run20 = solve_forward(params, uniform, tg20, capture_trajectory=True)
        pairs = [(captured, coarse)] + [
            (run20, solve_forward(params, g, t, capture_trajectory=True))
            for g, t in ((tavella_randall_grid(0, 5, 2, 1.0, 20), tg20),
                         (uniform, TimeGrid(tg20.dt / 2, tg20.steps)))]
        for first, second in pairs:
            for audit in (audit_comparison,
                          lambda a, b: audit_translation(a, b, 0.0)):
                with pytest.raises(ValidationError, match="share the grid"):
                    audit(first, second)


def captured_verify(params, grid, tg, config):
    """The verify lines from three captured runs and the public audits."""
    base, shifted, zero = [
        solve_forward(params, grid, tg, config, payoff=payoff,
                      capture_trajectory=True)
        for payoff in (payoff_call, lambda s, k: payoff_call(s, k) + 0.1,
                       payoff_zero)]
    checks = [
        audit_positivity(base),
        replace(audit_comparison(shifted, base), name="comparison(h+0.1)"),
        replace(audit_comparison(base, zero), name="comparison(call vs 0)"),
        audit_translation(base, shifted, 0.1 * params.gamma),
        audit_m_matrix(base),
        audit_sup_bound(base),
    ]
    return AuditReport(checks, max(r.diagnostics.restriction_max
                                   for r in (base, shifted, zero))).lines()


def outcome(route, *args):
    """What ``route`` returns, or the type and message it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return route(*args)
    except LiqshockError as err:
        return f"{type(err).__name__}: {err}"


class TestStreamedVerify:
    # Seeded draws from the acceptance criterion-9 box, on which most
    # imex_linear runs break down: the lockstep marches must report what
    # the captured runs report, lines or failure alike.
    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    def test_matches_captured_runs(self, scheme):
        rng = np.random.default_rng(7)
        failures = 0
        for _ in range(150):
            p = ModelParams(
                sigma=rng.uniform(0.05, 1.0), mu=rng.uniform(-0.5, 0.5),
                gamma=rng.uniform(0.1, 10.0), nu01=rng.uniform(0.01, 20.0),
                nu10=rng.uniform(0.01, 20.0), strike=rng.uniform(0.5, 10.0),
                horizon=rng.uniform(0.1, 3.0), s_min=0.0,
                s_max=rng.uniform(11.0, 50.0))
            grid = uniform_grid(p.s_min, p.s_max, 20)
            args = (p, grid, time_grid_from_space(grid, p.horizon),
                    SchemeConfig(scheme=scheme))
            streamed = outcome(lambda *a: verify(*a).lines(), *args)
            assert streamed == outcome(captured_verify, *args)
            failures += isinstance(streamed, str)
        if scheme == "imex_linear":
            assert failures > 0  # breakdowns are part of the comparison

    def test_keeps_no_trajectory(self, params):
        grid = tavella_randall_grid(0, 5, 2, 15.0, 480)
        tg = time_grid_from_space(grid, params.horizon)
        tracemalloc.start()
        try:
            verify(params, grid, tg, SchemeConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_trajectory = 2 * (tg.steps + 1) * (grid.intervals + 1) * 8
        assert peak < one_trajectory


class TestTranslationMatrix:
    @pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
    @pytest.mark.parametrize("grid_kind", ["uniform", "tavella"])
    @pytest.mark.parametrize("left", ["natural", "dirichlet"])
    def test_exact_everywhere(self, params, scheme, grid_kind, left):
        from liqshock import tavella_randall_grid
        delta = 0.25
        if grid_kind == "uniform":
            grid = uniform_grid(0, 5, 48)
        else:
            grid = tavella_randall_grid(0, 5, 2, 15, 48)
        tg = time_grid_from_space(grid, params.horizon)
        if left == "natural":
            bc_base, bc_shift = NATURAL, NATURAL
        else:
            bc_base = lambda tau: 0.0
            bc_shift = lambda tau: delta
        base = solve_forward(
            params, grid, tg, SchemeConfig(scheme=scheme, left_bc=bc_base),
            capture_trajectory=True)
        shifted = solve_forward(
            params, grid, tg,
            SchemeConfig(scheme=scheme, left_bc=bc_shift,
                         right_bc=lambda tau: 3.0 + delta),
            payoff=lambda s, k: payoff_call(s, k) + delta,
            capture_trajectory=True)
        check = audit_translation(base, shifted, delta)
        assert check.passed, f"worst {check.worst}"


def test_at_the_money_interpolates(params):
    grid = uniform_grid(0, 5, 30)
    tg = time_grid_from_space(grid, params.horizon)
    res = solve_forward(params, grid, tg)
    # strike sits exactly on node 12 for this ladder
    assert at_the_money(res) == res.final_state.u[12]
    assert at_the_money(res, "r1") == res.final_state.v[12]
    # any other name is an error, not a silent R1
    for quantity in ("r7", "R0", ""):
        with pytest.raises(ValidationError):
            at_the_money(res, quantity)
    # a strike off the grid is an error, not the value at its nearest end
    off = uniform_grid(3, 5, 20)
    res = solve_forward(params, off, time_grid_from_space(off, params.horizon))
    with pytest.raises(ValidationError, match="outside the grid"):
        at_the_money(res)


# At gamma = 1e307 the level-0 state is finite, but u / dt overflows in the
# first level.  Each public run refuses it through its finiteness checks,
# and no numpy warning leaves it past the warning gate of pyproject.toml.
@pytest.mark.filterwarnings("ignore:reaction time-step:RuntimeWarning")
@pytest.mark.parametrize("scheme", ["imex_linear", "imex_linearized"])
def test_overflowing_level_raises_without_numpy_warning(params, scheme):
    p = replace(params, gamma=1e307)
    grid = uniform_grid(0, 5, 20)
    tg = time_grid_from_space(grid, p.horizon)
    config = SchemeConfig(scheme)
    failure = "time step 0: non-finite entries in grid state"
    for route, error, message in (
            (lambda: solve_forward(p, grid, tg, config), SolveFailure, failure),
            (lambda: verify(p, grid, tg, config), SolveFailure, failure),
            (lambda: extrapolated_study(p, scheme, "uniform", [20, 40]),
             SolveFailure, failure),
            (lambda: implicit_oracle(p, grid, TimeGrid(0.05, 20), config),
             OracleConvergenceError, "implicit step stalled at residual nan")):
        with pytest.raises(error) as caught:
            route()
        assert str(caught.value) == message
