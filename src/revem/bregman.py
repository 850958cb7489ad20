"""Bregman divergence systems: a strictly convex potential on an open convex
set together with its dual (mixture) coordinates, the Legendre transform and
the divergence itself.

Two concrete factories are provided: the classical log-partition system over
a finite ground set and the quantum trace-exponential system over Hermitian
observables.  Both have domain R^d and their divergences reproduce the KL
divergence and the quantum relative entropy.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ImageMembershipError, InvalidSpecError
from .numerics import (DEFAULT_GRAD_TOL, DEFAULT_MAX_ITER, Minimizer,
                       minimize_fgh)

Array = np.ndarray


class BregmanSystem:
    """Potential F, gradient (mixture parameter map), Hessian and domain.

    Instances are immutable after construction; every method is a pure
    function of its arguments, so systems are safe to share across threads.
    The systems ``families`` projects onto also have ``restrict(generators,
    offset)``, the system of the slice theta = offset + generators @ coords.
    """

    def __init__(self, dim: int,
                 potential: Callable[[Array], float],
                 gradient: Callable[[Array], Array],
                 hessian: Callable[[Array], Array]):
        self.dim = int(dim)
        self._potential = potential
        self._gradient = gradient
        self._hessian = hessian

    def in_domain(self, theta: Array) -> bool:
        theta = np.asarray(theta, dtype=float)
        return theta.shape == (self.dim,) and bool(np.all(np.isfinite(theta)))

    def potential(self, theta: Array) -> float:
        return float(self._potential(np.asarray(theta, dtype=float)))

    def gradient(self, theta: Array) -> Array:
        return np.asarray(self._gradient(np.asarray(theta, dtype=float)), dtype=float)

    def hessian(self, theta: Array) -> Array:
        return np.asarray(self._hessian(np.asarray(theta, dtype=float)), dtype=float)

    def value_grad(self, theta: Array):
        return self.potential(theta), self.gradient(theta)

    def value_grad_hess(self, theta: Array):
        return self.potential(theta), self.gradient(theta), self.hessian(theta)


def _logsumexp(v: Array):
    m = float(v.max())
    w = np.exp(v - m)
    s = float(w.sum())
    return m + np.log(s), w / s


class ClassicalSystem(BregmanSystem):
    """log sum_x exp(base(x) + <theta, features(x)>) over a finite ground set."""

    def __init__(self, features: Array, base: Optional[Array] = None):
        self.features = np.asarray(features, dtype=float)
        n, d = self.features.shape
        self.base = np.zeros(n) if base is None else np.asarray(base, dtype=float)
        super().__init__(d, self._pot, self._grad, self._hess)

    def _logits(self, theta):
        return self.base + self.features @ theta

    def distribution(self, theta: Array) -> Array:
        """Probability vector P_theta on the ground set."""
        _, p = _logsumexp(self._logits(np.asarray(theta, dtype=float)))
        return p

    def _pot(self, theta):
        return _logsumexp(self._logits(theta))[0]

    def _grad(self, theta):
        return self.value_grad(theta)[1]

    def _hess(self, theta):
        return self.value_grad_hess(theta)[2]

    def value_grad(self, theta):
        f, p = _logsumexp(self._logits(np.asarray(theta, dtype=float)))
        return f, self.features.T @ p

    def value_grad_hess(self, theta):
        f, p = _logsumexp(self._logits(np.asarray(theta, dtype=float)))
        g = self.features.T @ p
        h = self.features.T @ (p[:, None] * self.features) - g[:, None] * g
        return f, g, h

    def restrict(self, generators, offset):
        gens = np.asarray(generators, dtype=float)
        off = np.asarray(offset, dtype=float)
        return ClassicalSystem(self.features @ gens, self.base + self.features @ off)


class QuantumSystem(BregmanSystem):
    """log Tr exp(base + sum_j theta^j X_j) over Hermitian observables X_j."""

    def __init__(self, observables: Array, base: Optional[Array] = None):
        obs = np.asarray(observables, dtype=complex)
        if obs.ndim != 3 or obs.shape[1] != obs.shape[2]:
            raise InvalidSpecError("observables must be a stack of square matrices")
        d, n, _ = obs.shape
        self.observables = obs
        self.hilbert_dim = n
        self.base = np.zeros((n, n), dtype=complex) if base is None \
            else np.asarray(base, dtype=complex)
        super().__init__(d, self._pot, self._grad, self._hess)

    def _eig(self, theta):
        a = self.base + np.einsum("j,jab->ab", theta, self.observables)
        return np.linalg.eigh(0.5 * (a + a.conj().T))

    def state(self, theta: Array) -> Array:
        """Density matrix rho_theta."""
        evals, evecs = self._eig(np.asarray(theta, dtype=float))
        _, w = _logsumexp(evals)
        return (evecs * w) @ evecs.conj().T

    def _pot(self, theta):
        evals, _ = self._eig(theta)
        return _logsumexp(evals)[0]

    def _grad(self, theta):
        return self.value_grad(theta)[1]

    def _hess(self, theta):
        return self.value_grad_hess(theta)[2]

    def _contract(self, evecs, w):
        """Gradient Tr(rho X_j) at rho = evecs diag(w) evecs^H."""
        rho = (evecs * w) @ evecs.conj().T
        return np.tensordot(self.observables, rho, axes=([1, 2], [1, 0])).real

    def value_grad(self, theta):
        evals, evecs = self._eig(np.asarray(theta, dtype=float))
        f, w = _logsumexp(evals)
        return f, self._contract(evecs, w)

    def value_grad_hess(self, theta):
        evals, evecs = self._eig(np.asarray(theta, dtype=float))
        f, w = _logsumexp(evals)
        g = self._contract(evecs, w)

        k = np.matmul(np.matmul(evecs.conj().T[None, :, :], self.observables),
                      evecs)

        # Divided differences of exp at the eigenvalues, normalized by Tr e^A
        # (Daleckii-Krein form of the Kubo-Mori metric).
        lam = evals[:, None] - evals[None, :]
        close = np.abs(lam) < 1e-9
        num = w[:, None] - w[None, :]
        phi = np.where(close, 1.0, num / np.where(close, 1.0, lam))
        mid = np.sqrt(np.maximum(w[:, None] * w[None, :], 0.0))
        phi = np.where(close, mid, phi)

        h = np.tensordot(k.conj(), k * phi[None, :, :],
                         axes=([1, 2], [1, 2])).real
        h = h - np.outer(g, g)
        return f, g, 0.5 * (h + h.T)

    def restrict(self, generators, offset):
        gens = np.asarray(generators, dtype=float)
        off = np.asarray(offset, dtype=float)
        obs = np.einsum("mj,mab->jab", gens, self.observables)
        base = self.base + np.einsum("m,mab->ab", off, self.observables)
        return QuantumSystem(obs, base)


def classical_system(features: Array, base: Optional[Array] = None) -> ClassicalSystem:
    """Build the log-partition system for d feature functions on n points.

    The features must be linearly independent and their span must not contain
    the constant function, so that the potential is strictly convex.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise InvalidSpecError("features must be an n x d array")
    n, d = features.shape
    if np.linalg.matrix_rank(features, tol=1e-10) != d:
        raise InvalidSpecError("feature functions are linearly dependent")
    aug = np.hstack([features, np.ones((n, 1))])
    if np.linalg.matrix_rank(aug, tol=1e-10) != d + 1:
        raise InvalidSpecError("feature span contains the constant function")
    return ClassicalSystem(features, base)


def quantum_system(observables: Array, base: Optional[Array] = None) -> QuantumSystem:
    """Build the trace-exponential system for d Hermitian observables.

    The observables must be linearly independent and their span must not
    contain the identity matrix.
    """
    obs = np.asarray(observables, dtype=complex)
    if obs.ndim != 3 or obs.shape[1] != obs.shape[2]:
        raise InvalidSpecError("observables must be a d x n x n array")
    d, n, _ = obs.shape
    dev = np.max(np.abs(obs - np.transpose(obs, (0, 2, 1)).conj())) if d else 0.0
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(obs))) if d else 1.0):
        raise InvalidSpecError("observables must be Hermitian")
    vecs = np.concatenate([obs.real.reshape(d, -1), obs.imag.reshape(d, -1)], axis=1)
    if np.linalg.matrix_rank(vecs, tol=1e-10) != d:
        raise InvalidSpecError("observables are linearly dependent")
    eye = np.eye(n).reshape(1, -1)
    aug = np.vstack([vecs, np.hstack([eye, np.zeros((1, n * n))])])
    if np.linalg.matrix_rank(aug, tol=1e-10) != d + 1:
        raise InvalidSpecError("observable span contains the identity")
    return QuantumSystem(obs, base)


def divergence(sys: BregmanSystem, theta1: Array, theta2: Array) -> float:
    """Bregman divergence D(theta1 || theta2) in nats."""
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    if not sys.in_domain(theta1) or not sys.in_domain(theta2):
        raise DomainError("divergence argument outside the system domain")
    f1, g1 = sys.value_grad(theta1)
    return float(g1 @ (theta1 - theta2) - f1 + sys.potential(theta2))


def natural_param(sys: BregmanSystem, eta: Array,
                  theta_init: Optional[Array] = None,
                  grad_tol: float = DEFAULT_GRAD_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> Array:
    """Invert the gradient map: the unique theta with grad F(theta) = eta.

    Solved by minimizing F(theta) - <eta, theta>.  Non-convergence signals
    that eta lies outside the image of the gradient map and raises
    ImageMembershipError.
    """
    eta = np.asarray(eta, dtype=float)
    x0 = np.zeros(sys.dim) if theta_init is None else np.asarray(theta_init, dtype=float)

    def fgh(th):
        f, g, h = sys.value_grad_hess(th)
        return f - eta @ th, g - eta, h

    res: Minimizer = minimize_fgh(fgh, x0, grad_tol=grad_tol, max_iter=max_iter)
    if not res.converged:
        raise ImageMembershipError(
            f"mixture parameter not reached (gradient norm {res.gradient_norm:.3e}); "
            "target may lie outside the image of the gradient map")
    return res.point


def legendre(sys: BregmanSystem, eta: Array,
             theta_init: Optional[Array] = None) -> float:
    """Legendre transform F*(eta) = <eta, theta(eta)> - F(theta(eta))."""
    eta = np.asarray(eta, dtype=float)
    theta = natural_param(sys, eta, theta_init)
    return float(eta @ theta - sys.potential(theta))
