"""Direct 3-point solver and its monotonicity/stability diagnostics."""

import os
import subprocess
import sys as _sys
import textwrap

import numpy as np
import pytest

from liqshock import (
    SingularSystemError,
    TridiagonalSystem,
    ValidationError,
    check_m_matrix,
    solve,
    stability_bound,
)


def dense_solve(sys):
    """Independent oracle: assemble the full matrix and use LAPACK."""
    n = sys.n_interior
    m = np.zeros((n, n))
    f = sys.rhs.copy()
    for i in range(n):
        m[i, i] = sys.diag[i]
        if i > 0:
            m[i, i - 1] = -sys.lower[i]
        if i < n - 1:
            m[i, i + 1] = -sys.upper[i]
    f[0] += sys.lower[0] * sys.left_value
    f[-1] += sys.upper[-1] * sys.right_value
    y = np.linalg.solve(m, f)
    return np.concatenate(([sys.left_value], y, [sys.right_value]))


def scalar_thomas(sys):
    """Reference: the same Thomas sweep indexed as numpy float64 scalars.

    ``solve`` runs these operations in the same order on Python floats, so
    both must agree to the last bit.
    """
    n = sys.n_interior
    lo, di, up = sys.lower, sys.diag, sys.upper
    f = sys.rhs.copy()
    f[0] += lo[0] * sys.left_value
    f[-1] += up[-1] * sys.right_value
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = -up[0] / di[0]
    dp[0] = f[0] / di[0]
    for i in range(1, n):
        den = di[i] + lo[i] * cp[i - 1]
        cp[i] = -up[i] / den
        dp[i] = (f[i] + lo[i] * dp[i - 1]) / den
    y = np.empty(n + 2)
    y[0] = sys.left_value
    y[-1] = sys.right_value
    y[n] = dp[-1]
    for i in range(n - 1, 0, -1):
        y[i] = dp[i - 1] - cp[i - 1] * y[i + 1]
    return y


def residuals(sys, y):
    """Row residuals A y_{i-1} - C y_i + B y_{i+1} + F."""
    return (sys.lower * y[:-2] - sys.diag * y[1:-1] + sys.upper * y[2:]
            + sys.rhs)


def random_dominant(rng, n):
    lower = rng.uniform(0.1, 3.0, n)
    upper = rng.uniform(0.1, 3.0, n)
    diag = lower + upper + rng.uniform(0.05, 2.0, n)
    rhs = rng.normal(size=n)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs,
                             left_value=rng.normal(), right_value=rng.normal())


class TestSolve:
    def test_identity_diagonal(self):
        f = np.array([1.5, -2.0, 0.25])
        sys = TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3),
                                upper=np.zeros(3), rhs=f,
                                left_value=0.0, right_value=0.0)
        np.testing.assert_allclose(solve(sys), [0, 1.5, -2.0, 0.25, 0])

    def test_symmetric_second_difference(self):
        # rows -y_{i-1} + 2 y_i - y_{i+1} = (1, 0, 1) with zero ends
        sys = TridiagonalSystem(lower=np.ones(3), diag=np.full(3, 2.0),
                                upper=np.ones(3), rhs=np.array([1.0, 0.0, 1.0]),
                                left_value=0.0, right_value=0.0)
        np.testing.assert_allclose(solve(sys), [0, 1, 1, 1, 0], atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        sys = random_dominant(rng, 6)
        np.testing.assert_allclose(solve(sys), dense_solve(sys),
                                   rtol=1e-12, atol=1e-12)

    def test_matches_dense_oracle_fuzzed(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            sys = random_dominant(rng, n)
            y = solve(sys)
            np.testing.assert_allclose(y, dense_solve(sys),
                                       rtol=1e-11, atol=1e-11)
            scale = 1.0 + np.abs(y).max()
            assert np.abs(residuals(sys, y)).max() <= 1e-10 * scale

    def test_boundary_values_exact(self):
        rng = np.random.default_rng(29)
        sys = random_dominant(rng, 9)
        y = solve(sys)
        assert y[0] == sys.left_value
        assert y[-1] == sys.right_value

    def test_bit_identical_to_scalar_sweep(self):
        rng = np.random.default_rng(41)
        for n in range(1, 41):
            sys = random_dominant(rng, n)
            assert np.array_equal(solve(sys), scalar_thomas(sys))
        sys = random_dominant(rng, 639)
        assert sys.left_value != 0.0 and sys.right_value != 0.0
        assert np.array_equal(solve(sys), scalar_thomas(sys))

    def test_singular_pivot(self):
        sys = TridiagonalSystem(lower=np.zeros(2), diag=np.zeros(2),
                                upper=np.zeros(2), rhs=np.ones(2),
                                left_value=0.0, right_value=0.0)
        with pytest.raises(SingularSystemError, match="row 0"):
            solve(sys)
        # den = 1 + 1 * (-1) = 0 at row 1; row 0 has a nonzero pivot
        sys = TridiagonalSystem(lower=np.ones(2), diag=np.ones(2),
                                upper=np.ones(2), rhs=np.ones(2),
                                left_value=0.0, right_value=0.0)
        with pytest.raises(SingularSystemError, match="row 1"):
            solve(sys)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            TridiagonalSystem(lower=np.ones(2), diag=np.ones(3),
                              upper=np.ones(3), rhs=np.ones(3),
                              left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError, match="one-dimensional"):
            TridiagonalSystem(lower=np.ones((2, 2)), diag=np.ones(4),
                              upper=np.ones(4), rhs=np.ones(4),
                              left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError, match="at least one interior"):
            TridiagonalSystem(lower=[], diag=[], upper=[], rhs=[],
                              left_value=0.0, right_value=0.0)


def test_solve_imports_no_scipy():
    # scipy's import time and memory would dominate a short run's set-up.
    code = textwrap.dedent("""
        import sys
        from liqshock import (ModelParams, solve_forward,
                              time_grid_from_space, uniform_grid)
        params = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0,
                             nu10=12.0, strike=2.0, horizon=1.0)
        grid = uniform_grid(params.s_min, params.s_max, 40)
        solve_forward(params, grid, time_grid_from_space(grid, params.horizon))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([_sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestMMatrix:
    def test_satisfied(self):
        sys = TridiagonalSystem(lower=np.ones(4), diag=np.full(4, 2.5),
                                upper=np.ones(4), rhs=np.zeros(4),
                                left_value=0.0, right_value=0.0)
        rep = check_m_matrix(sys)
        assert rep.satisfied
        assert rep.min_d == pytest.approx(0.5)

    def test_violated(self):
        sys = TridiagonalSystem(lower=np.ones(4), diag=np.full(4, 1.5),
                                upper=np.ones(4), rhs=np.zeros(4),
                                left_value=0.0, right_value=0.0)
        rep = check_m_matrix(sys)
        assert not rep.satisfied
        assert rep.min_d == pytest.approx(-0.5)

    def test_nonpositive_offdiagonal_fails(self):
        sys = TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3),
                                upper=np.ones(3), rhs=np.zeros(3),
                                left_value=0.0, right_value=0.0)
        assert not check_m_matrix(sys).satisfied

    def test_positivity_under_conditions(self):
        # nonnegative load and boundary data force a nonnegative solution
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            lower = rng.uniform(0.05, 2.0, n)
            upper = rng.uniform(0.05, 2.0, n)
            diag = lower + upper + rng.uniform(0.0, 1.0, n)
            rhs = rng.uniform(0.0, 3.0, n)
            sys = TridiagonalSystem(lower=lower, diag=diag, upper=upper,
                                    rhs=rhs, left_value=rng.uniform(0, 2),
                                    right_value=rng.uniform(0, 2))
            assert check_m_matrix(sys).satisfied
            assert solve(sys).min() >= -1e-13


class TestStabilityBound:
    def test_identity_example(self):
        sys = TridiagonalSystem(lower=np.zeros(2), diag=np.ones(2),
                                upper=np.zeros(2), rhs=np.array([3.0, -4.0]),
                                left_value=0.0, right_value=0.0)
        bound = stability_bound(sys)
        assert bound == 4.0
        assert np.abs(solve(sys)).max() == pytest.approx(4.0)

    def test_boundary_dominates(self):
        sys = TridiagonalSystem(lower=np.zeros(2), diag=np.ones(2),
                                upper=np.zeros(2), rhs=np.array([0.5, -1.0]),
                                left_value=7.0, right_value=0.0)
        assert stability_bound(sys) == 7.0

    def test_bound_holds_fuzzed(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            sys = random_dominant(rng, int(rng.integers(1, 25)))
            assert np.abs(solve(sys)).max() <= stability_bound(sys) * (1 + 1e-12)

    def test_requires_strict_domination(self):
        sys = TridiagonalSystem(lower=np.ones(2), diag=np.full(2, 2.0),
                                upper=np.ones(2), rhs=np.ones(2),
                                left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError):
            stability_bound(sys)
