"""Nonnegative least squares wrapper: optimality and typed errors."""

import numpy as np
import pytest
import scipy.optimize

from zonofit import SolverError, kkt_residual, nnls


def test_noiseless_nonnegative_target_recovered():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 5))
    x_true = np.abs(rng.standard_normal(5))
    x, res = nnls(A, A @ x_true)
    np.testing.assert_allclose(x, x_true, atol=1e-10)
    assert res <= 1e-10


def test_interior_solution_equals_lstsq():
    # When the unconstrained optimum is strictly positive the constraint is
    # inactive and nnls must reproduce the least-squares solution.
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 3))
    x_true = np.array([1.0, 2.0, 0.5])
    b = A @ x_true + 1e-3 * rng.standard_normal(10)
    x, _ = nnls(A, b)
    x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert x_ls.min() > 0.0
    np.testing.assert_allclose(x, x_ls, atol=1e-12)


def test_kkt_conditions_on_noisy_problems():
    rng = np.random.default_rng(19)
    for _ in range(20):
        A = rng.standard_normal((12, 6))
        b = A @ np.abs(rng.standard_normal(6)) + 0.1 * rng.standard_normal(12)
        x, _ = nnls(A, b)
        assert x.min() >= 0.0
        assert kkt_residual(A, b, x) <= 1e-10


def test_zero_rhs_gives_zero():
    A = np.eye(4)
    x, res = nnls(A, np.zeros(4))
    np.testing.assert_array_equal(x, np.zeros(4))
    assert res == 0.0


def test_all_negative_rhs_clamps_to_zero():
    A = np.eye(3)
    x, res = nnls(A, np.array([-1.0, -2.0, -0.5]))
    np.testing.assert_array_equal(x, np.zeros(3))
    assert res == pytest.approx(np.sqrt(1.0 + 4.0 + 0.25))


def test_shape_mismatch():
    with pytest.raises(SolverError, match="shape mismatch"):
        nnls(np.eye(3), np.zeros(4))


def test_iteration_limit_is_a_solver_error(monkeypatch):
    def give_up(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", give_up)
    with pytest.raises(SolverError, match="Maximum number of iterations"):
        nnls(np.eye(2), np.ones(2))


def test_kkt_residual_flags_bad_point():
    A = np.eye(2)
    b = np.array([1.0, 1.0])
    assert kkt_residual(A, b, np.zeros(2)) == pytest.approx(1.0)
    assert kkt_residual(A, b, b) == 0.0
