import numpy as np
import pytest

from conftest import random_features
from revem.bregman import (BregmanSystem, classical_system, divergence,
                           legendre, natural_param, quantum_system)
from revem.errors import InvalidSpecError


def quadratic_system(dim):
    return BregmanSystem(dim,
                         lambda th: 0.5 * float(th @ th),
                         lambda th: th.copy(),
                         lambda th: np.eye(dim))


def bernoulli_system():
    return classical_system(np.array([[0.0], [1.0]]))


def direct_kl(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def test_quadratic_divergence_is_half_squared_distance(rng):
    sys = quadratic_system(3)
    for _ in range(5):
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        assert abs(divergence(sys, t1, t2) - 0.5 * np.sum((t1 - t2) ** 2)) < 1e-12
        assert divergence(sys, t1, t1) == 0.0
    eta = rng.normal(size=3)
    assert np.allclose(natural_param(sys, eta), eta, atol=1e-10)
    assert abs(legendre(sys, eta) - 0.5 * eta @ eta) < 1e-10


def test_bernoulli_examples():
    sys = bernoulli_system()
    assert np.allclose(sys.distribution(np.zeros(1)), [0.5, 0.5])
    assert abs(sys.gradient(np.zeros(1))[0] - 0.5) < 1e-15
    assert abs(sys.gradient(np.array([10.0]))[0] - 1.0) < 1e-4
    assert abs(natural_param(sys, np.array([0.5]))[0]) < 1e-10
    # Convex conjugate of log(1 + e^t) is s log s + (1-s) log(1-s).
    for s in (0.5, 0.2, 0.731):
        symbolic = s * np.log(s) + (1 - s) * np.log(1 - s)
        assert abs(legendre(sys, np.array([s])) - symbolic) < 1e-10


def test_classical_kl_equality(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        sys = classical_system(random_features(rng, n, d))
        t1, t2 = rng.normal(size=d), rng.normal(size=d)
        kl = direct_kl(sys.distribution(t1), sys.distribution(t2))
        assert abs(divergence(sys, t1, t2) - kl) < 1e-10


def test_classical_factory_basics():
    sys = bernoulli_system()
    assert abs(sys.potential(np.zeros(1)) - np.log(2)) < 1e-14
    with pytest.raises(InvalidSpecError):
        classical_system(np.ones((3, 1)))  # constant feature
    with pytest.raises(InvalidSpecError):
        classical_system(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))


def test_natural_param_roundtrip(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        sys = classical_system(random_features(rng, n, d))
        theta = rng.normal(size=d)
        eta = sys.gradient(theta)
        assert np.max(np.abs(natural_param(sys, eta) - theta)) < 1e-9
        assert np.max(np.abs(sys.gradient(natural_param(sys, eta)) - eta)) < 1e-9


def test_dual_divergence_identity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        sys = classical_system(random_features(rng, n, d))
        t1, t2 = 0.7 * rng.normal(size=d), 0.7 * rng.normal(size=d)
        e1, e2 = sys.gradient(t1), sys.gradient(t2)
        dual = (float(natural_param(sys, e2) @ (e2 - e1))
                - legendre(sys, e2) + legendre(sys, e1))
        assert abs(divergence(sys, t1, t2) - dual) < 1e-9


def test_gradient_hessian_consistency(rng):
    step = 1e-6
    for _ in range(10):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        sys = classical_system(random_features(rng, n, d))
        theta = 0.5 * rng.normal(size=d)
        grad = sys.gradient(theta)
        hess = sys.hessian(theta)
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            fd = (sys.potential(theta + e) - sys.potential(theta - e)) / (2 * step)
            assert abs(fd - grad[j]) < 1e-6 * max(1.0, abs(grad[j]))
            fd_row = (sys.gradient(theta + e) - sys.gradient(theta - e)) / (2 * step)
            assert np.max(np.abs(fd_row - hess[j])) < 1e-5


def _random_hermitians(rng, n, d):
    while True:
        mats = []
        for _ in range(d):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (a + a.conj().T)
            h -= np.trace(h).real * np.eye(n) / n  # keep clear of the identity
            mats.append(h)
        obs = np.asarray(mats)
        vecs = np.concatenate([obs.real.reshape(d, -1), obs.imag.reshape(d, -1)], axis=1)
        if np.linalg.matrix_rank(vecs, tol=1e-8) == d:
            return obs


def test_quantum_uniform_state_and_validation(rng):
    obs = _random_hermitians(rng, 3, 2)
    sys = quantum_system(obs)
    assert np.max(np.abs(sys.state(np.zeros(2)) - np.eye(3) / 3)) < 1e-12
    with pytest.raises(InvalidSpecError):
        quantum_system(np.array([np.eye(2, dtype=complex)]))


def test_quantum_relative_entropy_equality(rng):
    for _ in range(100):
        d = int(rng.integers(1, 4))
        obs = _random_hermitians(rng, 2, d)
        sys = quantum_system(obs)
        t1, t2 = 0.7 * rng.normal(size=d), 0.7 * rng.normal(size=d)
        r1, r2 = sys.state(t1), sys.state(t2)
        w1, dual = np.linalg.eigh(r1)
        rel = float(np.sum(w1 * np.log(w1))
                    - np.einsum("ip,ij,jp->p", dual.conj(), np.asarray(
                        np.linalg.eigh(r2)[1] @ np.diag(np.log(np.linalg.eigh(r2)[0]))
                        @ np.linalg.eigh(r2)[1].conj().T), dual).real @ w1)
        assert abs(divergence(sys, t1, t2) - rel) < 1e-9


def test_quantum_diagonal_reduces_to_classical(rng):
    d = 3
    feats = random_features(rng, 4, d)
    obs = np.asarray([np.diag(feats[:, j]).astype(complex) for j in range(d)])
    qsys = quantum_system(obs)
    csys = classical_system(feats)
    for _ in range(20):
        t1, t2 = rng.normal(size=d), rng.normal(size=d)
        assert abs(divergence(qsys, t1, t2) - divergence(csys, t1, t2)) < 1e-10
        assert np.max(np.abs(qsys.gradient(t1) - csys.gradient(t1))) < 1e-10


def test_quantum_gradient_hessian_consistency(rng):
    step = 1e-6
    obs = _random_hermitians(rng, 3, 3)
    sys = quantum_system(obs)
    theta = 0.4 * rng.normal(size=3)
    grad = sys.gradient(theta)
    hess = sys.hessian(theta)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        fd = (sys.potential(theta + e) - sys.potential(theta - e)) / (2 * step)
        assert abs(fd - grad[j]) < 1e-6 * max(1.0, abs(grad[j]))
        fd_row = (sys.gradient(theta + e) - sys.gradient(theta - e)) / (2 * step)
        assert np.max(np.abs(fd_row - hess[j])) < 1e-5


def test_quantum_gradient_is_one_formula(rng):
    # value_grad and value_grad_hess contract the observables with the same
    # rho, so their gradients agree bit for bit.
    for dim in (2, 3):
        sys = quantum_system(_random_hermitians(rng, dim, dim * dim - 1))
        for _ in range(5):
            theta = rng.normal(size=sys.dim)
            assert np.array_equal(sys.value_grad(theta)[1],
                                  sys.value_grad_hess(theta)[1])


def test_divergence_nonnegative(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        sys = classical_system(random_features(rng, n, d))
        t1, t2 = rng.normal(size=d), rng.normal(size=d)
        val = divergence(sys, t1, t2)
        assert val > -1e-12
        if np.max(np.abs(t1 - t2)) > 1e-6:
            assert val > 0.0
