"""Shared numerical kernels: smooth convex minimization, kernel bases,
least-norm solves, nonnegative least squares (the degradedness check) and
the 1-d grid-plus-golden-section maximizer of the oracles.

The damped-Newton kernel factors its Hessians through LAPACK ``potrf`` /
``potrs`` directly rather than ``scipy.linalg.cho_factor`` / ``cho_solve``:
the matrices are 1 x 1 to about 6 x 6, where the wrappers' argument checks
cost more than the factorization.  The same routines run with the same
arguments, so the results are bit-identical.

Everything here is a pure function of its inputs; no shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InfeasibleSystemError, NumericalError

DEFAULT_GRAD_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_RANK_TOL = 1e-10

_ARMIJO_SLOPE = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 2.0 ** -60
_EPS = float(np.finfo(float).eps)


@dataclass
class Minimizer:
    """Result of a convex minimization.

    ``value`` is the objective at ``point`` and ``gradient_norm`` the
    Euclidean norm of the gradient there; ``converged`` is true iff
    ``gradient_norm`` dropped below the requested tolerance.
    """

    point: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool


def _spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for symmetric positive-definite ``mat``, reading
    its upper triangle; ``rhs`` may be 1-D or 2-D.

    Bit-identical to ``cho_solve(cho_factor(mat, check_finite=False), rhs,
    check_finite=False)`` and raises what they raise: LinAlgError when
    ``mat`` is not positive definite, ValueError on an illegal argument.
    """
    if mat.shape[0] == 0:
        return np.empty_like(rhs, dtype=float)
    c, info = dpotrf(mat, lower=0, clean=0)
    if info > 0:
        raise scipy.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of potrf")
    x, info = dpotrs(c, rhs, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of potrs")
    return x


def _chol_solve(hess: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve hess @ x = rhs by Cholesky, with a trace-scaled jitter retry.

    Returns None when the matrix cannot be factored even after jitter, which
    signals the caller to fall back to plain gradient descent.
    """
    try:
        return _spd_solve(hess, rhs)
    except (scipy.linalg.LinAlgError, ValueError):
        pass
    dim = hess.shape[0]
    scale = max(np.trace(hess).real / max(dim, 1), 1.0)
    for jit in (1e-12, 1e-8):
        try:
            return _spd_solve(hess + (jit * scale) * np.eye(dim), rhs)
        except (scipy.linalg.LinAlgError, ValueError):
            continue
    return None


def minimize_fgh(
    fgh: Callable[[np.ndarray], tuple],
    x0: np.ndarray,
    grad_tol: float = DEFAULT_GRAD_TOL,
    extra_stop: Optional[Callable[[np.ndarray, float, np.ndarray, np.ndarray], bool]] = None,
) -> Minimizer:
    """Damped-Newton descent on a fused (value, gradient, hessian) callback.

    ``fgh(x)`` returns the triple at x and is called once per point: at x0
    and at each line-search trial.  An accepted trial's triple becomes the
    next iterate's; a trial whose value is not finite (``fgh`` may return
    ``math.inf`` off the objective's domain) is rejected without reading
    its gradient or Hessian.  A non-finite value or gradient at x0, or a
    non-finite gradient at an accepted trial, raises NumericalError.
    ``extra_stop`` lets a caller terminate on its own certificate (used by
    the eps-approximate reverse-em step).  Falls back to gradient descent
    with Armijo backtracking when the Hessian cannot be Cholesky-factored.
    Takes at most DEFAULT_MAX_ITER Newton steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, hess = fgh(x)
    if not math.isfinite(f) or not np.isfinite(g).all():
        raise NumericalError(
            f"non-finite objective/gradient at starting iterate {x!r}")

    best = (x, f, g)
    iterations = 0
    for iterations in range(DEFAULT_MAX_ITER + 1):
        # Equal to np.linalg.norm(g), which is sqrt(g.dot(g)) for 1-D real g.
        gnorm = math.sqrt(float(g @ g))
        if gnorm <= grad_tol:
            return Minimizer(x, float(f), gnorm, iterations, True)
        if extra_stop is not None and extra_stop(x, f, g, hess):
            return Minimizer(x, float(f), gnorm, iterations, True)
        if iterations == DEFAULT_MAX_ITER:
            break

        direction = _chol_solve(hess, -g)
        if direction is None:
            direction = -g
        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -g
            slope = -gnorm ** 2

        # Absolute slack keeps the Armijo test meaningful once the true
        # decrease falls below float resolution of the objective value.
        noise = 64.0 * _EPS * max(1.0, abs(f))
        t = 1.0
        while t >= _MIN_STEP:
            x_new = x + t * direction
            f_new, g_new, h_new = fgh(x_new)
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_SLOPE * t * slope + noise:
                break
            t *= _BACKTRACK_FACTOR
        else:
            break

        x, f, g, hess = x_new, f_new, g_new, h_new
        if not np.isfinite(g).all():
            raise NumericalError(
                f"non-finite gradient at iterate {iterations + 1}: {x!r}")
        if f < best[1]:
            best = (x, f, g)

    if best[1] < f:
        x, f, g = best
    gnorm = math.sqrt(float(g @ g))
    return Minimizer(x, float(f), gnorm, iterations, gnorm <= grad_tol)


def _rank(svals: np.ndarray) -> int:
    """Numerical rank from descending singular values: those above
    DEFAULT_RANK_TOL times the largest."""
    return int(np.count_nonzero(svals > DEFAULT_RANK_TOL * svals[0])) if svals.size else 0


def kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` as a q x r matrix.

    The numerical rank counts singular values above DEFAULT_RANK_TOL times
    the largest one; r may be zero, giving an empty basis.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    q = mat.shape[1]
    if mat.shape[0] == 0 or q == 0:
        return np.eye(q)
    _, svals, vt = np.linalg.svd(mat)
    return vt[_rank(svals):].T.copy()


@dataclass
class LeastNorm:
    """One full SVD of a p x q matrix and what is read from it: ``point``,
    the least-norm solution of mat @ x = rhs; all min(p, q)
    ``singular_values``, descending; an orthonormal null-space basis
    ``kernel`` (q x r) and the pseudo-inverse ``pinv`` (q x p), whose
    transpose is the pseudo-inverse of mat.T.  ``kernel`` and ``pinv`` keep
    the singular values above DEFAULT_RANK_TOL times the largest."""

    point: np.ndarray
    singular_values: np.ndarray
    kernel: np.ndarray
    pinv: np.ndarray


def _require_consistent(residual: float, rhs: np.ndarray, svals: np.ndarray) -> None:
    """Raise InfeasibleSystemError, carrying the system matrix's singular
    values ``svals``, when ``residual`` exceeds 1e-8 * (1 + |rhs|): rhs is
    not in the numerical column space."""
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
        err = InfeasibleSystemError(
            f"right-hand side outside column space (residual {residual:.3e})")
        err.singular_values = svals
        raise err


def least_norm_solve(mat: np.ndarray, rhs: np.ndarray) -> LeastNorm:
    """Minimum-norm solution x = pinv @ rhs of mat @ x = rhs, as a
    ``LeastNorm`` read from one full SVD of ``mat``.  The pseudo-inverse
    drops singular values at or below DEFAULT_RANK_TOL times the largest,
    as np.linalg.pinv(rcond=DEFAULT_RANK_TOL) does.

    Raises InfeasibleSystemError when the residual exceeds 1e-8 * (1 + |rhs|),
    i.e. when rhs is not in the numerical column space; the error carries
    ``mat``'s ``singular_values``, so a caller can still tell a
    rank-deficient matrix from an inconsistent right-hand side.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    u, svals, vt = np.linalg.svd(mat)
    rank = _rank(svals)
    pinv = vt[:rank].T @ ((1.0 / svals[:rank])[:, None] * u[:, :rank].T)
    x = pinv @ rhs
    _require_consistent(float(np.linalg.norm(mat @ x - rhs)), rhs, svals)
    return LeastNorm(x, svals, vt[rank:].T.copy(), pinv)


def nonneg_least_squares(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x >= 0 minimizing |mat @ x - rhs|, by the Lawson-Hanson active-set
    method (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23).

    A column j joins the passive set while its correlation with the residual
    r = rhs - mat @ x, (mat.T @ r)_j, exceeds 10 eps (largest column 1-norm)
    max(m, n); at most 3n columns join.  The returned x is nonnegative
    exactly.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    m, n = mat.shape
    tol = 10.0 * _EPS * np.abs(mat).sum(axis=0).max(initial=0.0) * max(m, n)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        corr = np.where(passive, -np.inf, mat.T @ (rhs - mat @ x))
        if corr.max() <= tol:
            break
        passive[int(np.argmax(corr))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(mat[:, passive], rhs, rcond=None)[0]
            blocked = passive & (z <= 0.0)
            if not blocked.any():
                break
            # Back-track from x towards z until the first passive weight
            # reaches zero, and move that column back to the active set.
            ratios = x[blocked] / (x[blocked] - z[blocked])
            x = x + ratios.min() * (z - x)
            passive[np.flatnonzero(blocked)[np.argmin(ratios)]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
        x = z
    return x


def maximize_on_unit_interval(value: Callable[[float], float],
                              grid_values: np.ndarray) -> float:
    """Maximum of ``value`` on [0, 1], given its values on the grid of
    ``len(grid_values)`` equally spaced points: the best grid point, refined
    by golden-section search on the two grid cells around it.
    """
    grid_points = len(grid_values) - 1
    s = np.linspace(0.0, 1.0, grid_points + 1)[int(np.argmax(grid_values))]
    a = max(s - 2.0 / grid_points, 0.0)
    b = min(s + 2.0 / grid_points, 1.0)
    inv_phi = (np.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(200):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = value(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = value(c)
        if b - a < 1e-12:
            break
    return float(value(0.5 * (a + b)))
