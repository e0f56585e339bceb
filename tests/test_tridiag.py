"""Direct 3-point solver and its monotonicity/stability diagnostics."""

import math
import os
import subprocess
import sys as _sys
import textwrap

import numpy as np
import pytest

from liqshock import (
    SingularSystemError,
    TridiagonalRows,
    TridiagonalSystem,
    ValidationError,
    check_m_matrix,
    solve,
    stability_bound,
)


def system(lower, diag, upper, rhs, left_value, right_value):
    return TridiagonalSystem(TridiagonalRows(lower, diag, upper), rhs,
                             left_value, right_value)


def dense_solve(sys):
    """Independent oracle: assemble the full matrix and use LAPACK."""
    n = sys.n_interior
    rows = sys.rows
    m = np.zeros((n, n))
    f = sys.rhs.copy()
    for i in range(n):
        m[i, i] = rows.diag[i]
        if i > 0:
            m[i, i - 1] = -rows.lower[i]
        if i < n - 1:
            m[i, i + 1] = -rows.upper[i]
    f[0] += rows.lower[0] * sys.left_value
    f[-1] += rows.upper[-1] * sys.right_value
    y = np.linalg.solve(m, f)
    return np.concatenate(([sys.left_value], y, [sys.right_value]))


def scalar_thomas(sys):
    """Reference: the same Thomas sweep indexed as numpy float64 scalars.

    ``solve`` runs these operations in the same order on Python floats, so
    both must agree to the last bit.
    """
    n = sys.n_interior
    lo, di, up = sys.rows.lower, sys.rows.diag, sys.rows.upper
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
    rows = sys.rows
    return (rows.lower * y[:-2] - rows.diag * y[1:-1] + rows.upper * y[2:]
            + sys.rhs)


def random_dominant(rng, n):
    lower = rng.uniform(0.1, 3.0, n)
    upper = rng.uniform(0.1, 3.0, n)
    diag = lower + upper + rng.uniform(0.05, 2.0, n)
    rhs = rng.normal(size=n)
    return system(lower=lower, diag=diag, upper=upper, rhs=rhs,
                  left_value=rng.normal(), right_value=rng.normal())


class TestSolve:
    def test_identity_diagonal(self):
        f = np.array([1.5, -2.0, 0.25])
        sys = system(lower=np.zeros(3), diag=np.ones(3),
                     upper=np.zeros(3), rhs=f,
                     left_value=0.0, right_value=0.0)
        np.testing.assert_allclose(solve(sys), [0, 1.5, -2.0, 0.25, 0])

    def test_symmetric_second_difference(self):
        # rows -y_{i-1} + 2 y_i - y_{i+1} = (1, 0, 1) with zero ends
        sys = system(lower=np.ones(3), diag=np.full(3, 2.0),
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

    def test_one_elimination_serves_many_loads(self):
        # each load solved on both paths: substituted into the cached
        # elimination, and eliminated with the load in one pass
        rng = np.random.default_rng(43)
        for n in [*range(1, 41), 639]:
            one_pass = random_dominant(rng, n).rows
            cached = TridiagonalRows(one_pass.lower, one_pass.diag,
                                     one_pass.upper)
            cached.elimination
            for left, right in ((0.0, 0.0), (-0.0, 1e300),
                                (rng.normal(), rng.normal())):
                for rhs in (np.zeros(n), rng.normal(size=n),
                            rng.uniform(-1e150, 1e150, n)):
                    for rows in (one_pass, cached):
                        sys = TridiagonalSystem(rows, rhs, left, right)
                        assert np.array_equal(solve(sys), scalar_thomas(sys))
            # the one-pass sweep keeps nothing on the rows
            assert "elimination" not in one_pass.__dict__

    def test_rows_leave_the_callers_arrays_alone(self):
        lower, diag, upper = np.ones(3), np.full(3, 3.0), np.ones(3)
        frozen = np.ones(6)[::2]
        frozen.setflags(write=False)  # a read-only view of a writable base
        rows = TridiagonalRows(lower, diag, frozen)
        d, y = rows.domination.copy(), solve(TridiagonalSystem(
            rows, np.ones(3), 0.0, 0.0))
        lower[:] = diag[:] = frozen.base[:] = 7.0
        assert np.array_equal(rows.domination, d)
        assert np.array_equal(solve(TridiagonalSystem(
            rows, np.ones(3), 0.0, 0.0)), y)
        assert np.array_equal(rows.diag, np.full(3, 3.0))
        for arr in (rows.lower, rows.diag, rows.upper):
            assert not arr.flags.writeable
        # a row set's own arrays are shared, not copied again
        assert TridiagonalRows(rows.lower, diag, rows.upper).upper is rows.upper

    def test_one_off_diagonal_array_gives_the_facts_of_two(self):
        # A and B as one array (a uniform grid's plan) give the facts of
        # two equal arrays, a non-positive or NaN entry included
        rng = np.random.default_rng(59)
        for bad in (None, 0.0, -1.0, np.nan):
            sys = random_dominant(rng, 17)
            arr = sys.rows.lower.copy()
            if bad is not None:
                arr[5] = bad
            arr.setflags(write=False)
            one = TridiagonalRows(arr, sys.rows.diag, arr)
            two = TridiagonalRows(arr.copy(), sys.rows.diag, arr.copy())
            assert one.lower is one.upper and two.lower is not two.upper
            for got, want in zip(one.off_diagonals, two.off_diagonals):
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == want.tobytes()
                else:  # lists of floats, NaN included, and the flag
                    assert repr(got) == repr(want)
            assert got is (bad is None)

    def test_result_is_a_new_writable_array(self):
        rng = np.random.default_rng(47)
        for n in (1, 639):
            sys = random_dominant(rng, n)
            y = solve(sys)
            assert y.dtype == np.float64 and y.shape == (n + 2,)
            assert y.flags.writeable and y.flags.owndata
            assert np.array_equal(y, scalar_thomas(sys))

    def test_derived_rows_match_fresh_rows(self):
        # a new diagonal on shared A and B, including a non-positive A and
        # a NaN diagonal entry: every fact equals that of rows built anew
        rng = np.random.default_rng(53)
        for n in (1, 2, 17, 639):
            base = random_dominant(rng, n).rows
            lower = base.lower.copy()
            lower[n // 2] = 0.0 if n > 1 else -0.5
            base = TridiagonalRows(lower, base.diag, base.upper)
            diags = [base.diag + rng.uniform(0.0, 1.0, n)]
            diags.append(diags[0].copy())
            diags[1][n - 1] = np.nan
            for diag in diags:
                derived = base._with_diag(diag.copy())
                fresh = TridiagonalRows(base.lower, diag, base.upper)
                assert derived.off_diagonals is base.off_diagonals
                assert np.array_equal(derived.domination, fresh.domination,
                                      equal_nan=True)
                assert repr(derived.min_domination) == repr(
                    fresh.min_domination)
                assert check_m_matrix(TridiagonalSystem(
                    derived, np.zeros(n), 0.0, 0.0)) is check_m_matrix(
                        TridiagonalSystem(fresh, np.zeros(n), 0.0, 0.0))
                rhs = rng.normal(size=n)
                y, want = (solve(TridiagonalSystem(rows, rhs, 0.5, -1.5))
                           for rows in (derived, fresh))
                assert np.array_equal(y, want, equal_nan=True)
                assert np.array_equal(y, scalar_thomas(TridiagonalSystem(
                    fresh, rhs, 0.5, -1.5)), equal_nan=True)

    def test_singular_pivot(self):
        sys = system(lower=np.zeros(2), diag=np.zeros(2),
                     upper=np.zeros(2), rhs=np.ones(2),
                     left_value=0.0, right_value=0.0)
        with pytest.raises(SingularSystemError, match="row 0"):
            solve(sys)
        with pytest.raises(SingularSystemError, match="row 0"):
            sys.rows.elimination
        # den = 1 + 1 * (-1) = 0 at row 1; row 0 has a nonzero pivot
        sys = system(lower=np.ones(2), diag=np.ones(2),
                     upper=np.ones(2), rhs=np.ones(2),
                     left_value=0.0, right_value=0.0)
        with pytest.raises(SingularSystemError, match="row 1"):
            solve(sys)
        with pytest.raises(SingularSystemError, match="row 1"):
            sys.rows.elimination
        # den = 1 + 1 * (-1) = 0 at row 2, after two nonzero pivots
        sys = system(lower=np.array([0.0, 0.0, 1.0, 0.0]), diag=np.ones(4),
                     upper=np.array([0.0, 1.0, 1.0, 0.0]), rhs=np.ones(4),
                     left_value=0.0, right_value=0.0)
        with pytest.raises(SingularSystemError, match="row 2"):
            solve(sys)
        with pytest.raises(SingularSystemError, match="row 2"):
            sys.rows.elimination
        assert "elimination" not in sys.rows.__dict__

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            system(lower=np.ones(2), diag=np.ones(3),
                   upper=np.ones(3), rhs=np.ones(3),
                   left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError, match="one-dimensional"):
            system(lower=np.ones((2, 2)), diag=np.ones(4),
                   upper=np.ones(4), rhs=np.ones(4),
                   left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError, match="at least one interior"):
            system(lower=[], diag=[], upper=[], rhs=[],
                   left_value=0.0, right_value=0.0)
        rows = TridiagonalRows(np.ones(3), np.full(3, 3.0), np.ones(3))
        for rhs in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValidationError, match="one entry per row"):
                TridiagonalSystem(rows, rhs, 0.0, 0.0)


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
        sys = system(lower=np.ones(4), diag=np.full(4, 2.5),
                     upper=np.ones(4), rhs=np.zeros(4),
                     left_value=0.0, right_value=0.0)
        assert check_m_matrix(sys) is True
        assert sys.rows.min_domination == pytest.approx(0.5)
        # D = 0 still holds
        sys = system(lower=np.ones(3), diag=np.full(3, 2.0),
                     upper=np.ones(3), rhs=np.zeros(3),
                     left_value=0.0, right_value=0.0)
        assert check_m_matrix(sys) is True
        assert sys.rows.min_domination == 0.0

    def test_violated(self):
        sys = system(lower=np.ones(4), diag=np.full(4, 1.5),
                     upper=np.ones(4), rhs=np.zeros(4),
                     left_value=0.0, right_value=0.0)
        assert check_m_matrix(sys) is False
        assert sys.rows.min_domination == pytest.approx(-0.5)

    def test_negative_diagonal_fails(self):
        # D = |C| - |A| - |B| = 3 >= 0 here, so only C > 0 catches it
        sys = system(lower=np.ones(3), diag=np.full(3, -5.0),
                     upper=np.ones(3), rhs=np.zeros(3),
                     left_value=0.0, right_value=0.0)
        assert check_m_matrix(sys) is False
        assert sys.rows.min_domination == 3.0

    def test_nan_row_fails(self):
        # a NaN makes its row's D NaN: no sign check holds and the least D
        # is NaN
        for field in ("lower", "diag", "upper"):
            arrays = dict(lower=np.ones(3), diag=np.full(3, 2.5),
                          upper=np.ones(3))
            arrays[field] = np.array([arrays[field][0], np.nan,
                                      arrays[field][2]])
            sys = system(**arrays, rhs=np.zeros(3), left_value=0.0,
                         right_value=0.0)
            assert check_m_matrix(sys) is False
            assert np.isnan(sys.rows.min_domination)

    def test_nonpositive_offdiagonal_fails(self):
        sys = system(lower=np.zeros(3), diag=np.ones(3),
                     upper=np.ones(3), rhs=np.zeros(3),
                     left_value=0.0, right_value=0.0)
        assert check_m_matrix(sys) is False

    def test_positivity_under_conditions(self):
        # nonnegative load and boundary data force a nonnegative solution
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            lower = rng.uniform(0.05, 2.0, n)
            upper = rng.uniform(0.05, 2.0, n)
            diag = lower + upper + rng.uniform(0.0, 1.0, n)
            rhs = rng.uniform(0.0, 3.0, n)
            sys = system(lower=lower, diag=diag, upper=upper,
                         rhs=rhs, left_value=rng.uniform(0, 2),
                         right_value=rng.uniform(0, 2))
            assert check_m_matrix(sys) is True
            assert solve(sys).min() >= -1e-13


class TestStabilityBound:
    def test_identity_example(self):
        sys = system(lower=np.zeros(2), diag=np.ones(2),
                     upper=np.zeros(2), rhs=np.array([3.0, -4.0]),
                     left_value=0.0, right_value=0.0)
        bound = stability_bound(sys)
        assert bound == 4.0
        assert np.abs(solve(sys)).max() == pytest.approx(4.0)

    def test_boundary_dominates(self):
        sys = system(lower=np.zeros(2), diag=np.ones(2),
                     upper=np.zeros(2), rhs=np.array([0.5, -1.0]),
                     left_value=7.0, right_value=0.0)
        assert stability_bound(sys) == 7.0

    def test_bound_holds_fuzzed(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            sys = random_dominant(rng, int(rng.integers(1, 25)))
            assert np.abs(solve(sys)).max() <= stability_bound(sys) * (1 + 1e-12)

    def test_requires_strict_domination(self):
        sys = system(lower=np.ones(2), diag=np.full(2, 2.0),
                     upper=np.ones(2), rhs=np.ones(2),
                     left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError):
            stability_bound(sys)

    def test_nan_row_has_no_domination(self):
        sys = system(lower=np.zeros(2), diag=np.array([1.0, np.nan]),
                     upper=np.zeros(2), rhs=np.ones(2),
                     left_value=0.0, right_value=0.0)
        with pytest.raises(ValidationError, match="strict diagonal"):
            stability_bound(sys)

    def test_nan_load_gives_nan_bound(self):
        sys = system(lower=np.zeros(2), diag=np.ones(2),
                     upper=np.zeros(2), rhs=np.array([np.nan, 1.0]),
                     left_value=0.0, right_value=0.0)
        with np.errstate(invalid="ignore"):
            assert math.isnan(stability_bound(sys))

    @pytest.mark.parametrize("side", ["left_value", "right_value"])
    def test_nan_edge_gives_nan_bound(self, side):
        edges = {"left_value": 0.0, "right_value": 0.0, side: math.nan}
        sys = system(lower=np.zeros(2), diag=np.ones(2),
                     upper=np.zeros(2), rhs=np.ones(2), **edges)
        assert math.isnan(stability_bound(sys))
        assert np.isnan(solve(sys)).any()
