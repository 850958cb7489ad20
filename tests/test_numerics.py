import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chan1, random_features
from revem import classical
from revem.bregman import classical_system, natural_param
from revem.errors import InfeasibleSystemError, NumericalError
from revem.numerics import (_chol_solve, _spd_solve, kernel_basis,
                            least_norm_solve, minimize_fgh)


def test_quadratic_known_minimizer():
    c = np.array([1.0, 2.0])
    res = minimize_fgh(
        lambda x: (float((x - c) @ (x - c)), 2 * (x - c), 2 * np.eye(2)),
        np.zeros(2), grad_tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    assert np.allclose(res.point, c, atol=1e-12)
    assert res.value <= 1e-20
    assert res.gradient_norm <= 1e-12


def test_symmetric_logistic_min_at_zero():
    res = minimize_fgh(
        lambda x: (float(np.log1p(np.exp(x[0])) - 0.5 * x[0]),
                   np.array([1 / (1 + np.exp(-x[0])) - 0.5]),
                   np.array([[np.exp(x[0]) / (1 + np.exp(x[0])) ** 2]])),
        np.array([3.0]))
    assert res.converged
    assert abs(res.point[0]) < 1e-9


def _golden_section(f, a, b, iters=200):
    inv_phi = (np.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-13:
            break
    return 0.5 * (a + b)


def test_one_dimensional_channel_objective_matches_golden_section():
    # Restricting the t=0.3 example channel to its first three inputs leaves
    # one free variable in the output-side minimization.
    sp = classical.split(chan1(0.3).matrix[:, :3])
    theta_b = least_norm_solve(sp.moments, sp.dual_offset)
    kernel = kernel_basis(sp.moments)
    assert kernel.shape == (3, 1)
    sys_eb = sp.sys_b

    def objective(s):
        return sys_eb.potential(theta_b + kernel[:, 0] * s)

    res = minimize_fgh(
        lambda x: (objective(x[0]),
                   kernel.T @ sys_eb.gradient(theta_b + kernel @ x),
                   kernel.T @ sys_eb.hessian(theta_b + kernel @ x) @ kernel),
        np.zeros(1))
    # The potential is rounded at eps |F|, so comparing its values locates
    # the minimizer only to about sqrt(eps |F| / F'') = 5e-8 here.  A second
    # golden-section pass around the first one's point s1 evaluates the
    # objective relative to its value there, log E_{P(s1)} exp((s - s1) b)
    # with log1p/expm1, whose rounding scales with that difference.
    s1 = _golden_section(objective, -50.0, 50.0)
    p1 = sys_eb.distribution(theta_b + kernel[:, 0] * s1)
    b = sys_eb.features @ kernel[:, 0]
    oracle = _golden_section(lambda s: np.log1p(p1 @ np.expm1((s - s1) * b)),
                             s1 - 1e-6, s1 + 1e-6)
    assert res.converged
    assert abs(res.point[0] - oracle) < 1e-8


def test_kernel_basis_cases(rng):
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    k = kernel_basis(np.array([[1.0, 1.0]]))
    assert k.shape == (2, 1)
    assert abs(abs(k[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(k[0, 0] + k[1, 0]) < 1e-12
    for _ in range(10):
        m = rng.normal(size=(3, 6))
        basis = kernel_basis(m)
        assert basis.shape == (6, 3)
        assert np.max(np.abs(m @ basis)) < 1e-12
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-12


def test_least_norm_solve(rng):
    b = rng.normal(size=4)
    assert np.allclose(least_norm_solve(np.eye(4), b), b)
    assert np.allclose(least_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0])),
                       np.array([1.0, 1.0]))
    a = rng.normal(size=(3, 5))
    x = least_norm_solve(a, rng.normal(size=3))
    assert np.linalg.norm(a @ x - a @ x) < 1e-12
    for _ in range(10):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        x = least_norm_solve(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10


def test_least_norm_infeasible():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleSystemError):
        least_norm_solve(a, np.array([1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_quadratic_family_two_step_convergence(dim, seed):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(dim, dim))
    mat = root @ root.T + np.eye(dim)
    c = rng.normal(size=dim)
    res = minimize_fgh(
        lambda x: (float(0.5 * x @ mat @ x - c @ x), mat @ x - c, mat),
        rng.normal(size=dim), grad_tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    assert res.gradient_norm <= 1e-12


def test_spd_solve_matches_scipy_bit_for_bit(rng):
    for dim in range(7):
        root = rng.normal(size=(dim, dim))
        mat = root @ root.T + 0.1 * np.eye(dim)
        factor = scipy.linalg.cho_factor(mat, check_finite=False)
        for rhs in (rng.normal(size=dim), rng.normal(size=(dim, 3)),
                    rng.normal(size=(3, dim)).T):
            expected = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            got = _spd_solve(mat, rhs)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
    with pytest.raises(scipy.linalg.LinAlgError):
        _spd_solve(np.diag([1.0, -1.0, 2.0]), np.ones(3))


def test_chol_solve_jitter_and_failure():
    # singular PSD: factored after jitter, solving the consistent direction
    vec = np.array([1.0, 2.0, -1.0])
    with pytest.raises(scipy.linalg.LinAlgError):
        _spd_solve(np.outer(vec, vec), vec)
    x = _chol_solve(np.outer(vec, vec), vec)
    assert x is not None and np.all(np.isfinite(x))
    assert np.allclose(np.outer(vec, vec) @ x, vec, rtol=1e-6)
    assert _chol_solve(-np.eye(3), np.ones(3)) is None


def test_gradient_norm_matches_numpy_norm(rng):
    for dim in range(1, 9):
        for scale in (1e-12, 1.0, 1e8):
            g = scale * rng.normal(size=dim)
            assert math.sqrt(float(g @ g)) == float(np.linalg.norm(g))


def test_fgh_called_once_per_point(rng):
    # natural_param's only evaluations are value_grad_hess, one per point.
    for _ in range(10):
        sys = classical_system(random_features(rng, 6, 3))
        eta = sys.gradient(rng.normal(scale=2.0, size=3))
        points = []
        full = sys.value_grad_hess

        def counted(theta):
            points.append(np.asarray(theta, dtype=float).tobytes())
            return full(theta)

        sys.value_grad_hess = counted
        sys.potential = None  # any value-only evaluation would fail
        theta = natural_param(sys, eta)
        assert np.allclose(full(theta)[1], eta, atol=1e-9)
        assert len(points) == len(set(points)) > 1


def test_infinite_value_beyond_wall_is_backtracked():
    # f(x) = -x - log(1 - x) on x < 1, minimum at 0; from x0 = -3 the full
    # Newton step lands at 9, beyond the wall.
    calls = []

    def fgh(x):
        calls.append(float(x[0]))
        if x[0] >= 1.0:
            return math.inf, None, None
        return (float(-x[0] - math.log(1.0 - x[0])), np.array([-1.0 + 1.0 / (1.0 - x[0])]),
                np.array([[1.0 / (1.0 - x[0]) ** 2]]))

    res = minimize_fgh(fgh, np.array([-3.0]), grad_tol=1e-12)
    assert calls[1] == 9.0
    assert res.converged
    assert abs(res.point[0]) < 1e-9
    assert len(calls) == len(set(calls))


def test_non_finite_value_at_start_raises():
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericalError):
            minimize_fgh(lambda x, bad=bad: (bad, None, None), np.zeros(2))
