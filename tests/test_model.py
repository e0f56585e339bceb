"""Model constants, F0/F1 evaluation, payoff, and price transforms.

High-precision reference values were computed independently with mpmath
at 50 significant digits and frozen here.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from liqshock import (
    ModelParams,
    NumericalError,
    ValidationError,
    derive_constants,
    evaluate_f,
    payoff_call,
    to_prices,
)

# independent 50-digit evaluation, truncated
LAM1_REF = 13.00154064918336624
LAM2_REF = 0.018459350816633760174
F0_AT_0 = 0.98159348424743972936
F1_AT_0 = 0.98310577197032950128
P_COMPOSED = 0.2294219765028024147


@pytest.fixture
def table_params():
    return ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                       strike=2.0, horizon=1.0, s_min=0.0, s_max=5.0)


def random_params(rng):
    sigma = rng.uniform(0.05, 1.0)
    return ModelParams(
        sigma=sigma,
        mu=rng.uniform(-0.5, 0.5),
        gamma=rng.uniform(0.1, 10.0),
        nu01=rng.uniform(0.01, 20.0),
        nu10=rng.uniform(0.01, 20.0),
        strike=rng.uniform(0.5, 10.0),
        horizon=rng.uniform(0.1, 3.0),
        s_min=0.0,
        s_max=rng.uniform(11.0, 50.0),
    )


class TestDeriveConstants:
    def test_d0_direct(self, table_params):
        dc = derive_constants(table_params)
        assert dc.d0 == pytest.approx(0.02, abs=1e-15)
        assert dc.a == 1.0 and dc.c == 12.0
        assert dc.b == pytest.approx(1.02, abs=1e-15)

    def test_root_pair(self, table_params):
        dc = derive_constants(table_params)
        assert dc.lambda1 == pytest.approx(LAM1_REF, rel=1e-14)
        assert dc.lambda2 == pytest.approx(LAM2_REF, rel=1e-13)
        assert dc.lambda1 > dc.lambda2 > 0

    def test_vieta_identities(self, table_params):
        dc = derive_constants(table_params)
        assert dc.lambda1 * dc.lambda2 == pytest.approx(0.24, rel=1e-12)
        assert dc.lambda1 + dc.lambda2 == pytest.approx(13.02, rel=1e-12)

    def test_vieta_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_params(rng)
            dc = derive_constants(p)
            assert dc.lambda1 * dc.lambda2 == pytest.approx(
                dc.d0 * p.nu10, rel=1e-12)
            assert dc.lambda1 + dc.lambda2 == pytest.approx(
                dc.d0 + p.nu01 + p.nu10, rel=1e-12)
            assert dc.lambda1 > dc.lambda2 > 0

    def test_drift_free_root_pair(self, table_params):
        # mu = 0 gives d0 = 0, so lambda2 = 0 and lambda1 is the trace
        dc = derive_constants(replace(table_params, mu=0.0))
        assert (dc.lambda1, dc.lambda2) == (13.0, 0.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            ModelParams(sigma=-1.0, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        with pytest.raises(ValidationError):
            ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=6.0, horizon=1.0, s_min=0.0, s_max=5.0)
        with pytest.raises(ValidationError):
            ModelParams(sigma=0.3, mu=0.06, gamma=0.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        # finite, but the squared spacing of its grid would overflow
        with pytest.raises(ValidationError, match="s_max squared must be"):
            ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0, s_max=1e200)
        # so would sigma's, although d0 underflows harmlessly; 1.3e154
        # still squares to a finite number
        with pytest.raises(ValidationError, match="sigma squared must be"):
            ModelParams(sigma=1e155, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                        strike=2.0, horizon=1.0)
        ModelParams(sigma=1.3e154, mu=0.06, gamma=1.0, nu01=1.0, nu10=12.0,
                    strike=2.0, horizon=1.0)
        # d0 = mu^2 / (2 sigma^2) divides by zero, overflows, or is inf
        for sigma, mu in ((1e-200, 0.06), (0.3, 1e200), (1e-160, 0.06)):
            with pytest.raises(ValidationError, match="d0 .* must be finite"):
                ModelParams(sigma=sigma, mu=mu, gamma=1.0, nu01=1.0,
                            nu10=12.0, strike=2.0, horizon=1.0)
        # valid inputs whose root pair collapses in floating point
        p = ModelParams(sigma=1.0, mu=2.0, gamma=1.0, nu01=1e-300, nu10=2.0,
                        strike=2.0, horizon=1.0)
        with pytest.raises(ValidationError, match="discriminant <= 0"):
            derive_constants(p)
        # the trace squared overflows, which would give lambda1 = inf
        p = ModelParams(sigma=0.3, mu=0.0, gamma=1.0, nu01=1e160, nu10=12.0,
                        strike=2.0, horizon=1.0)
        with pytest.raises(ValidationError, match="discriminant <= 0"):
            derive_constants(p)


class TestEvaluateF:
    def test_terminal_normalization(self, table_params):
        dc = derive_constants(table_params)
        f0, f1 = evaluate_f(dc, table_params.horizon)
        assert abs(f0 - 1.0) < 1e-12
        assert abs(f1 - 1.0) < 1e-12

    def test_at_issue_time(self, table_params):
        dc = derive_constants(table_params)
        f0, f1 = evaluate_f(dc, 0.0)
        assert f0 == pytest.approx(F0_AT_0, rel=1e-13)
        assert f1 == pytest.approx(F1_AT_0, rel=1e-13)
        assert round(f0, 4) == 0.9816

    def test_terminal_normalization_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_params(rng)
            dc = derive_constants(p)
            f0, f1 = evaluate_f(dc, p.horizon)
            assert abs(f0 - 1.0) < 1e-12
            assert abs(f1 - 1.0) < 1e-12

    def test_positive_on_horizon(self):
        rng = np.random.default_rng(13)
        ts = None
        for _ in range(25):
            p = random_params(rng)
            dc = derive_constants(p)
            ts = np.linspace(0.0, p.horizon, 1000)
            for t in ts:
                f0, f1 = evaluate_f(dc, float(t))
                assert f0 > 0 and f1 > 0

    def test_extreme_rates_stay_finite(self):
        # large lambda1 * T would overflow the naive exp(+lam t) form
        p = ModelParams(sigma=0.05, mu=0.5, gamma=1.0, nu01=500.0, nu10=500.0,
                        strike=2.0, horizon=3.0, s_max=20.0)
        dc = derive_constants(p)
        f0, f1 = evaluate_f(dc, 0.0)
        assert math.isfinite(f0) and math.isfinite(f1)
        assert f0 > 0 and f1 > 0
        f0T, f1T = evaluate_f(dc, p.horizon)
        assert abs(f0T - 1.0) < 1e-12 and abs(f1T - 1.0) < 1e-12

    def test_rejects_time_outside_horizon(self, table_params):
        dc = derive_constants(table_params)
        for t in (-0.5, 1.5, math.nan):
            with pytest.raises(ValidationError, match="outside"):
                evaluate_f(dc, t)

    def test_horizon_roundoff_scales_with_horizon(self, table_params):
        # 1e-12 outside [0, T] for T <= 1, 1e-12 * T beyond: an ulp of a
        # long horizon is roundoff, a microsecond is not
        for horizon, inside, outside in ((1.0, 1e-12, 2e-12),
                                         (0.25, 1e-12, 2e-12),
                                         (27665.7, 2e-8, 3e-8)):
            dc = derive_constants(replace(table_params, horizon=horizon))
            for t in (-inside, horizon + inside):
                evaluate_f(dc, t)
            for t in (-outside, horizon + outside):
                with pytest.raises(ValidationError, match="outside"):
                    evaluate_f(dc, t)


class TestPayoff:
    @pytest.mark.parametrize("s,strike,expected",
                             [(2.0, 2.0, 0.0), (5.0, 2.0, 3.0), (0.0, 2.0, 0.0)])
    def test_scalar(self, s, strike, expected):
        assert payoff_call(s, strike) == expected

    def test_vectorized(self):
        np.testing.assert_allclose(payoff_call(np.array([0.0, 2.0, 3.5]), 2.0),
                                   [0.0, 0.0, 1.5])


class TestToPrices:
    def test_terminal_identity(self, table_params):
        dc = derive_constants(table_params)
        s = np.linspace(0, 5, 11)
        h = payoff_call(s, 2.0)
        p, q = to_prices(table_params.gamma * h, table_params.gamma * h,
                         table_params.horizon, table_params, dc)
        np.testing.assert_allclose(p, h, atol=1e-14)
        np.testing.assert_allclose(q, h, atol=1e-14)

    def test_composed_with_f(self, table_params):
        dc = derive_constants(table_params)
        p, q = to_prices(np.array([0.2480]), np.array([0.2480]), 0.0,
                         table_params, dc)
        assert p[0] == pytest.approx(P_COMPOSED, abs=1e-12)
        assert round(p[0], 4) == 0.2294

    def test_affine_shift(self, table_params):
        dc = derive_constants(table_params)
        rng = np.random.default_rng(3)
        u = rng.normal(size=15)
        v = rng.normal(size=15)
        delta = 0.37
        g = table_params.gamma
        p0, q0 = to_prices(u, v, 0.4, table_params, dc)
        p1, q1 = to_prices(u + g * delta, v + g * delta, 0.4, table_params, dc)
        np.testing.assert_allclose(p1, p0 + delta, rtol=0, atol=1e-14)
        np.testing.assert_allclose(q1, q0 + delta, rtol=0, atol=1e-14)

    def test_rejects_shape_mismatch(self, table_params):
        dc = derive_constants(table_params)
        with pytest.raises(ValidationError, match="share a shape"):
            to_prices(np.zeros(3), np.zeros(4), 0.4, table_params, dc)

    def test_nonfinite_prices_raise(self, table_params):
        # ln(F0)/gamma overflows for a subnormal gamma
        # (and u/gamma too for u = 1), reported by the raise alone
        p = replace(table_params, gamma=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (np.zeros(3), np.ones(3)):
                with pytest.raises(NumericalError, match="non-finite prices"):
                    to_prices(u, u, 0.0, p, derive_constants(p))

    def test_gamma_scaling(self):
        p2 = ModelParams(sigma=0.3, mu=0.06, gamma=2.0, nu01=1.0, nu10=12.0,
                         strike=2.0, horizon=1.0)
        dc = derive_constants(p2)
        u = np.array([2.0 * 1.0])  # gamma * h with h = 1 at expiry
        p, q = to_prices(u, u, p2.horizon, p2, dc)
        assert p[0] == pytest.approx(1.0, abs=1e-14)
