"""Shared numerical kernels: smooth convex minimization, kernel bases,
least-norm solves and the 1-d grid-plus-golden-section maximizer of the
two-input oracles.

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
    max_iter: int = DEFAULT_MAX_ITER,
    value_only: Optional[Callable[[np.ndarray], float]] = None,
    extra_stop: Optional[Callable[[np.ndarray, float, np.ndarray, np.ndarray], bool]] = None,
) -> Minimizer:
    """Damped-Newton descent on a fused (value, gradient, hessian) callback.

    ``fgh(x)`` returns the triple at x; ``value_only`` may give a cheaper
    objective-only evaluation for the line search.  ``extra_stop`` lets a
    caller terminate on its own certificate (used by the eps-approximate
    reverse-em step).  Falls back to gradient descent with Armijo
    backtracking when the Hessian cannot be Cholesky-factored.
    """
    x = np.asarray(x0, dtype=float).copy()
    f_of = value_only if value_only is not None else (lambda z: fgh(z)[0])

    f, g, hess = fgh(x)
    if not math.isfinite(f) or not np.isfinite(g).all():
        raise NumericalError(
            f"non-finite objective/gradient at starting iterate {x!r}")

    best_x, best_f = x.copy(), f
    iterations = 0
    for iterations in range(max_iter + 1):
        # Equal to np.linalg.norm(g), which is sqrt(g.dot(g)) for 1-D real g.
        gnorm = math.sqrt(float(g @ g))
        if gnorm <= grad_tol:
            return Minimizer(x, float(f), gnorm, iterations, True)
        if extra_stop is not None and extra_stop(x, f, g, hess):
            return Minimizer(x, float(f), gnorm, iterations, True)
        if iterations == max_iter:
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
        accepted = False
        while t >= _MIN_STEP:
            x_new = x + t * direction
            f_new = f_of(x_new)
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_SLOPE * t * slope + noise:
                accepted = True
                break
            t *= _BACKTRACK_FACTOR
        if not accepted:
            break

        x = x_new
        f, g, hess = fgh(x)
        if not math.isfinite(f) or not np.isfinite(g).all():
            raise NumericalError(
                f"non-finite objective/gradient at iterate {iterations + 1}: {x!r}")
        if f < best_f:
            best_x, best_f = x.copy(), f

    gnorm = math.sqrt(float(g @ g))
    if best_f < f:
        x = best_x
        f, g, _ = fgh(x)
        gnorm = math.sqrt(float(g @ g))
    return Minimizer(x, float(f), gnorm, iterations, gnorm <= grad_tol)


def kernel_basis(mat: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` as a q x r matrix.

    The numerical rank counts singular values above ``rank_tol`` times the
    largest one; r may be zero, giving an empty basis.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    q = mat.shape[1]
    if mat.shape[0] == 0 or q == 0:
        return np.eye(q)
    _, svals, vt = np.linalg.svd(mat)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > rank_tol * smax)) if smax > 0 else 0
    return vt[rank:].T.copy()


def least_norm_solve(mat: np.ndarray, rhs: np.ndarray,
                     rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Minimum-norm solution of mat @ x = rhs via a thresholded pseudo-inverse.

    Raises InfeasibleSystemError when the residual exceeds 1e-8 * (1 + |rhs|),
    i.e. when rhs is not in the numerical column space.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if mat.shape[1] == 0:
        x = np.zeros(0)
    else:
        x = np.linalg.pinv(mat, rcond=rank_tol) @ rhs
    residual = float(np.linalg.norm(mat @ x - rhs)) if mat.size else float(np.linalg.norm(rhs))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
        raise InfeasibleSystemError(
            f"right-hand side outside column space (residual {residual:.3e})")
    return x


def maximize_on_unit_interval(value: Callable[[float], float],
                              grid_points: int) -> float:
    """Maximum of ``value`` on [0, 1]: the best of ``grid_points + 1`` grid
    points, refined by golden-section search on the two grid cells around it.
    """
    grid = np.linspace(0.0, 1.0, grid_points + 1)
    s = grid[int(np.argmax([value(x) for x in grid]))]
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
