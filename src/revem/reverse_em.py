"""Reverse em-problem engine: maximize over a mixture subfamily the minimum
Bregman divergence to an exponential subfamily.

The mixture subfamily carries a compatible exponential structure (a basis U
and a fixed trailing natural-parameter block), which makes the composed
projection map invertible.  Three routes solve the problem:

* iterating that inverse map in mixture, natural or eps-approximate form;
* em conversion: ``em_minimize`` (alternating e/m projections) on the
  auxiliary families of a product system, then a Newton polish of their
  intersection;
* under a product split of the exponential potential, one convex
  minimization of the second split potential over the kernel of the dual
  moment matrix (``split_maximizer``, the paper's non-iterative formula).

``build_geometry`` builds the ``CapacityGeometry`` of every capacity module;
a ``Split`` is what that geometry and the non-iterative formula share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bregman import BregmanSystem, ClassicalSystem, divergence, natural_param
from .errors import (ConditionViolationError, DegenerateChannelError,
                     ImageMembershipError, InvalidChannelError, ProjectionError,
                     RevemError)
from .families import (ExponentialSubfamily, MixtureSubfamily, e_projection,
                       m_projection)
from .numerics import _spd_solve, kernel_basis, least_norm_solve, minimize_fgh

Array = np.ndarray

STEPPERS = ("mixture", "natural", "eps")


@dataclass(eq=False)
class Split:
    """Product split F_E(theta_a, theta_b) = F_a(theta_a) + F_b(theta_b) of a
    channel's exponential potential, with F_a the categorical potential of
    the k input indicators.

    ``moments`` is the k x dim_b matrix of <W_i, f> for inputs i < k, where
    the features f of F_b are orthogonal to the last input W_last;
    ``dual_offset`` is H_last - H_i, the constant between the two dual
    coordinate maps; ``last_entropy`` is H_last.  Built from a channel by
    ``classical.split`` or ``cq.split``.
    """

    sys_b: BregmanSystem
    moments: Array
    dual_offset: Array
    last_entropy: float

    @cached_property
    def sys_a(self) -> ClassicalSystem:
        """F_a(theta) = log(1 + sum_i exp theta_i)."""
        k = self.moments.shape[0]
        return ClassicalSystem(np.eye(k + 1, k))


@dataclass(eq=False)
class ReverseEmProblem:
    """A paired (mixture, exponential) instance.

    ``family_M`` must coincide with the affine slice
    {U @ (theta_a, theta_tail)} of natural-parameter space.  ``split`` is
    the product split of the exponential potential, when it has one.
    ``leading_identity_block`` records whether the leading k x k block of
    the dual matrix is the identity (within 1e-12), which the natural step
    and the non-iterative method need.
    """

    sys: BregmanSystem
    family_E: ExponentialSubfamily
    family_M: MixtureSubfamily
    theta_tail: Array
    split: Optional[Split] = None

    dual_matrix: Array = field(init=False)
    leading_identity_block: bool = field(init=False)
    E_system: BregmanSystem = field(init=False)
    M_system: BregmanSystem = field(init=False)

    def __post_init__(self):
        self.theta_tail = np.asarray(self.theta_tail, dtype=float)
        u = self.family_M.basis
        k = self.family_M.free_count
        v = self.family_E.generators
        self.dual_matrix = np.linalg.solve(u, v)[:k, :]
        lead = self.dual_matrix[:, :k]
        self.leading_identity_block = bool(
            lead.shape == (k, k)
            and np.max(np.abs(lead - np.eye(k)), initial=0.0) <= 1e-12)
        self.E_system = self.sys.restrict(v, self.family_E.offset)
        m_offset = u @ np.concatenate([np.zeros(k), self.theta_tail])
        self.M_system = self.sys.restrict(u[:, :k], m_offset)

    @property
    def k(self) -> int:
        return self.family_M.free_count

    @property
    def l(self) -> int:
        return self.family_E.dim

    @property
    def dual_tail(self) -> Array:
        return self.dual_matrix[:, self.k:]

    def m_ambient(self, theta_a: Array) -> Array:
        """Ambient natural parameter of the mixture-family member theta_a."""
        return self.family_M.basis @ np.concatenate(
            [np.asarray(theta_a, dtype=float), self.theta_tail])

    def e_ambient(self, theta_c: Array) -> Array:
        """Ambient natural parameter of the exponential-family member theta_c."""
        return self.family_E.ambient(theta_c)

    def m_coords(self, theta: Array) -> Array:
        """Leading-k coordinates of an ambient mixture-family member."""
        return np.linalg.solve(self.family_M.basis, np.asarray(theta, dtype=float))[:self.k]


@dataclass(eq=False)
class CapacityGeometry:
    """A channel's reverse-em problem and the mixture coordinate of its
    uniform input.  The first k features of every capacity geometry are the
    indicators of inputs 1..k, so a member's mixture coordinate is its input
    distribution without the last weight."""

    rem: ReverseEmProblem
    theta_a_uniform: Array

    def decode_input(self, theta_a: Array) -> Array:
        """Input distribution of the mixture-family member theta_a."""
        eta = self.rem.M_system.gradient(theta_a)
        return np.append(eta, 1.0 - eta.sum())


@dataclass
class SolveTrace:
    """Iteration record of a reverse-em solve."""

    objective_values: Array
    fixed_point_residuals: Array
    iterations: int
    capacity: float
    theta_a: Array
    converged: bool


@dataclass
class EmResult:
    """Outcome of the alternating-minimization (em) loop."""

    c_inf: float
    theta_M: Array
    theta_E: Array
    iterations: int
    converged: bool


@dataclass
class EmConversionResult:
    """Intersection search for the converted problem.

    ``intersection_found`` is False when the auxiliary families do not meet
    (the maximizer sits on the boundary and the supremum is not attained).
    ``residual`` is the norm of the intersection equation at the returned
    point, or infinite when no intersection is found.
    """

    intersection_found: bool
    capacity: Optional[float]
    theta_a: Optional[Array]
    theta_c: Optional[Array]
    residual: float
    iterations: int
    message: str = ""


@dataclass
class SplitMaximizer:
    """The non-iterative formula on a split: ``theta_b_bar`` minimizes F_b
    over {moments @ theta_b = dual_offset}, ``weights`` = (eta_a,
    1 - sum eta_a) are the input weights it decodes to (a negative weight
    flags a boundary optimum), ``value`` = F_b(theta_b_bar) - H_last is the
    candidate capacity, and ``residual`` is the norm of
    moments^T eta_a - grad F_b(theta_b_bar)."""

    theta_b_bar: Array
    weights: Array
    value: float
    residual: float


@dataclass
class NonIterativeResult:
    """Result of the single-minimization method.

    When ``exists`` is False the dual coordinate fell outside the image of
    the gradient map: the supremum is attained only on the boundary and the
    caller should recurse on input subsets.
    """

    exists: bool
    capacity: Optional[float]
    theta_a: Optional[Array]
    eta_a: Array
    theta_c: Optional[Array]
    theta_b_bar: Array
    message: str = ""


def _objective_and_residual(p: ReverseEmProblem, theta_a: Array,
                            state: Dict) -> Tuple[float, float, Array]:
    """Objective D(theta || m-projection) and the fixed-point residual.

    The m-projection is warm-started at ``state["theta_c"]``, which the
    inverse steps set to the E-point they solved for.
    """
    amb = p.m_ambient(theta_a)
    f_m, g_m = p.sys.value_grad(amb)
    target = p.family_E.generators.T @ g_m
    theta_c = natural_param(p.E_system, target, theta_init=state.get("theta_c"))
    state["theta_c"] = theta_c
    amb_e = p.e_ambient(theta_c)
    obj = float(g_m @ (amb - amb_e) - f_m + p.sys.potential(amb_e))
    residual = float(np.linalg.norm(
        p.dual_matrix @ theta_c - np.asarray(theta_a, dtype=float)))
    return obj, residual, theta_c


_EM_NORM_GUARD = 200.0


def em_minimize(sys: BregmanSystem, family_M: MixtureSubfamily,
                family_E: ExponentialSubfamily, theta_init: Array,
                tol: float = 1e-12, max_iter: int = 5000) -> EmResult:
    """Alternating e-/m-projections minimizing the divergence between the
    mixture and exponential subfamilies; returns the minimized divergence.

    Stops unconverged as soon as the mixture iterate leaves the box
    |theta| <= _EM_NORM_GUARD: the families then do not meet and the
    iterates drift off to infinity.  A failed projection raises
    ProjectionError.
    """
    theta_e = np.asarray(theta_init, dtype=float)
    gap = np.inf
    converged = False
    theta_m = theta_e
    it = 0
    for it in range(1, max_iter + 1):
        theta_m = e_projection(sys, family_M, theta_e)
        _, theta_e = m_projection(sys, family_E, theta_m)
        new_gap = divergence(sys, theta_m, theta_e)
        diverged = np.max(np.abs(theta_m)) > _EM_NORM_GUARD
        converged = not diverged and abs(gap - new_gap) < tol
        gap = new_gap
        if diverged or converged:
            break
    return EmResult(float(gap), theta_m, theta_e, it, converged)


def _inverse_step_dual(p: ReverseEmProblem, theta_a: Array,
                       state: Optional[Dict], extra_stop=None) -> Array:
    """The inverse map through the dual problem: minimize
    F_E*(eta_hat dual_matrix) - <eta_hat, theta_a> over eta_hat in R^k, then
    invert the mixture-family gradient map at the minimizer.

    The inner gradient-map inversions are solved two decades tighter than
    the dual minimization so their error does not dominate its gradient.
    Each is warm-started at the last one, which ``state["legendre"]`` keeps
    across steps.
    """
    grad_tol = 1e-9
    state = {} if state is None else state
    theta_a = np.asarray(theta_a, dtype=float)
    eta_init = state.get("eta_hat")
    if eta_init is None:
        eta_init = p.M_system.gradient(theta_a)
    dual = p.dual_matrix
    memo: Dict = {"key": None}

    def solve_c(eta_hat):
        key = eta_hat.tobytes()
        if memo["key"] != key:
            state["legendre"] = natural_param(
                p.E_system, dual.T @ eta_hat, theta_init=state.get("legendre"),
                grad_tol=grad_tol * 1e-2)
            memo["key"] = key
        return state["legendre"]

    def fgh(eta_hat):
        try:
            theta_c = solve_c(eta_hat)
        except ImageMembershipError:
            return math.inf, None, None
        f_c, _, h_c = p.E_system.value_grad_hess(theta_c)
        eta_c = dual.T @ eta_hat
        f = float(eta_c @ theta_c - f_c - eta_hat @ theta_a)
        g = dual @ theta_c - theta_a
        h = dual @ _spd_solve(h_c, dual.T)
        return f, g, 0.5 * (h + h.T)

    res = minimize_fgh(fgh, eta_init, grad_tol=grad_tol, extra_stop=extra_stop)
    if not res.converged:
        raise ProjectionError(
            f"inner dual minimization stalled (gradient norm {res.gradient_norm:.3e})")
    state["eta_hat"] = res.point
    # The E-point of the minimizer is the m-projection of the new iterate.
    state["theta_c"] = solve_c(res.point)
    return natural_param(p.M_system, res.point, theta_init=theta_a)


def inverse_step_mixture(p: ReverseEmProblem, theta_a: Array,
                         state: Optional[Dict] = None) -> Array:
    """One application of the inverse projection map in mixture parameters."""
    return _inverse_step_dual(p, theta_a, state)


def inverse_step_eps(p: ReverseEmProblem, theta_a: Array, eps: float,
                     state: Optional[Dict] = None) -> Array:
    """As the mixture step, but the inner minimization stops once the
    strong-convexity certificate |g|^2 / (2 lambda_min(H)) drops below eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def certificate(_x, _f, g, h):
        lam = float(np.linalg.eigvalsh(h)[0])
        if lam <= 0:
            return False
        return float(g @ g) / (2.0 * lam) <= eps

    return _inverse_step_dual(p, theta_a, state, extra_stop=certificate)


def inverse_step_natural(p: ReverseEmProblem, theta_a: Array,
                         state: Optional[Dict] = None) -> Array:
    """One application of the inverse map computed in natural parameters.

    Requires the identity leading block of the dual matrix; when the
    exponential potential splits as a product, the inner minimization
    separates into the two split potentials.
    """
    if not p.leading_identity_block:
        raise ConditionViolationError("natural step needs the identity leading block")
    state = {} if state is None else state
    theta_a = np.asarray(theta_a, dtype=float)
    tail = p.dual_tail
    tb0 = state.get("theta_b")
    if tb0 is None:
        tb0 = np.zeros(p.l - p.k)

    if p.split is not None:
        sys_a, sys_b = p.split.sys_a, p.split.sys_b

        def fgh(tb):
            fa, ga, ha = sys_a.value_grad_hess(theta_a - tail @ tb)
            fb, gb, hb = sys_b.value_grad_hess(tb)
            return fa + fb, gb - tail.T @ ga, tail.T @ ha @ tail + hb
    else:
        jac = np.vstack([-tail, np.eye(p.l - p.k)])

        def fgh(tb):
            f, g, h = p.E_system.value_grad_hess(
                np.concatenate([theta_a - tail @ tb, tb]))
            return f, jac.T @ g, jac.T @ h @ jac

    res = minimize_fgh(fgh, tb0)
    if not res.converged:
        raise ProjectionError("natural-parameter inner minimization stalled")
    tb = res.point
    state["theta_b"] = tb
    # The E-point of the minimizer is the m-projection of the new iterate.
    theta_c = np.concatenate([theta_a - tail @ tb, tb])
    state["theta_c"] = theta_c
    if p.split is not None:
        eta_a_new = sys_a.gradient(theta_c[:p.k])
    else:
        eta_a_new = p.E_system.gradient(theta_c)[:p.k]
    return natural_param(p.M_system, eta_a_new, theta_init=theta_a)


def fixed_point_residual(p: ReverseEmProblem, theta_a: Array,
                         state: Optional[Dict] = None) -> float:
    """Norm of the invariance defect of theta_a under the projection pair."""
    state = {} if state is None else state
    _, residual, _ = _objective_and_residual(p, np.asarray(theta_a, dtype=float), state)
    return residual


def solve_reverse_em(p: ReverseEmProblem, theta_init: Array,
                     stepper: str = "natural", tol: float = 1e-10,
                     max_iter: int = 10000, eps: Optional[float] = None,
                     residual_tol: float = 1e-8) -> SolveTrace:
    """Iterate the chosen inverse step from theta_init, recording the
    objective and fixed-point residual, until the objective increment drops
    below ``tol`` or the residual below ``residual_tol``."""
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}")
    if stepper == "eps" and (eps is None or eps <= 0):
        raise ValueError("eps stepper requires a positive eps")

    theta_a = np.asarray(theta_init, dtype=float).copy()
    state: Dict = {}
    objectives: List[float] = []
    residuals: List[float] = []
    iterates: List[Array] = []
    converged = False

    for _ in range(max_iter + 1):
        obj, residual, _ = _objective_and_residual(p, theta_a, state)
        objectives.append(obj)
        residuals.append(residual)
        iterates.append(theta_a.copy())
        if residual < residual_tol or (
                len(objectives) > 1 and abs(objectives[-1] - objectives[-2]) < tol):
            converged = True
            break
        if len(objectives) > max_iter:
            break
        if stepper == "mixture":
            theta_a = inverse_step_mixture(p, theta_a, state)
        elif stepper == "natural":
            theta_a = inverse_step_natural(p, theta_a, state)
        else:
            theta_a = inverse_step_eps(p, theta_a, eps, state)

    best = int(np.argmax(objectives)) if stepper == "eps" else len(objectives) - 1
    return SolveTrace(
        objective_values=np.asarray(objectives),
        fixed_point_residuals=np.asarray(residuals),
        iterations=len(objectives) - 1,
        capacity=float(objectives[best]),
        theta_a=iterates[best],
        converged=converged,
    )


class _SumSystem(BregmanSystem):
    """F_1(a) + F_2(b) with (a, b) = _parts(x); here a = b = x, which is how
    a slice of a direct sum evaluates: as the sum of its factors' slices."""

    def __init__(self, first: BregmanSystem, second: BregmanSystem, dim: int):
        self.first = first
        self.second = second
        super().__init__(dim, self._pot, self._grad, self._hess)

    def _parts(self, x):
        return x, x

    def _join(self, u, v):
        return u + v

    def _pot(self, x):
        a, b = self._parts(x)
        return self.first.potential(a) + self.second.potential(b)

    def _grad(self, x):
        return self.value_grad(x)[1]

    def _hess(self, x):
        return self.value_grad_hess(x)[2]

    def value_grad(self, x):
        a, b = self._parts(np.asarray(x, dtype=float))
        fa, ga = self.first.value_grad(a)
        fb, gb = self.second.value_grad(b)
        return fa + fb, self._join(ga, gb)

    def value_grad_hess(self, x):
        a, b = self._parts(np.asarray(x, dtype=float))
        fa, ga, ha = self.first.value_grad_hess(a)
        fb, gb, hb = self.second.value_grad_hess(b)
        return fa + fb, self._join(ga, gb), self._join(ha, hb)


class _ProductSystem(_SumSystem):
    """Direct sum of two Bregman systems: stacked gradients, block-diagonal
    Hessians.  A slice of it restricts as the sum of its factors' own
    restrictions, with no block-diagonal assembly."""

    def __init__(self, first: BregmanSystem, second: BregmanSystem):
        self.split_at = first.dim
        super().__init__(first, second, first.dim + second.dim)

    def _parts(self, x):
        return x[:self.split_at], x[self.split_at:]

    def _join(self, u, v):
        if u.ndim == 1:
            return np.concatenate([u, v])
        h = np.zeros((self.dim, self.dim))
        h[:self.split_at, :self.split_at] = u
        h[self.split_at:, self.split_at:] = v
        return h

    def restrict(self, generators, offset):
        gens_a, gens_b = self._parts(np.asarray(generators, dtype=float))
        off_a, off_b = self._parts(np.asarray(offset, dtype=float))
        return _SumSystem(self.first.restrict(gens_a, off_a),
                          self.second.restrict(gens_b, off_b), gens_a.shape[1])


def em_conversion(p: ReverseEmProblem, max_iter: int = 20) -> EmConversionResult:
    """Convert the maximization to an intersection search between auxiliary
    mixture/exponential subfamilies of the product system: at most
    ``max_iter`` alternating projections of ``em_minimize`` as a warm-up,
    then a Newton polish of the intersection equation and a regularity test
    of its Jacobian, which decide whether the families intersect."""
    k, l = p.k, p.l
    prod = _ProductSystem(p.M_system, p.E_system)
    u_hat = np.block([[np.eye(k), p.dual_matrix], [np.zeros((l, k)), -np.eye(l)]])
    m_hat = MixtureSubfamily(u_hat, k, np.zeros(l))
    e_hat = ExponentialSubfamily(np.vstack([p.dual_matrix, np.eye(l)]), np.zeros(k + l))

    try:
        run = em_minimize(prod, m_hat, e_hat, np.zeros(k + l), tol=1e-13,
                          max_iter=max_iter)
    except ProjectionError as exc:
        return EmConversionResult(False, None, None, None, np.inf, 0,
                                  f"projection failure: {exc}")
    it = run.iterations
    if np.max(np.abs(run.theta_M)) > _EM_NORM_GUARD:
        return EmConversionResult(False, None, None, None, np.inf, it,
                                  "iterates diverged: families do not intersect")
    status = "converged" if run.converged else "max_iter"
    theta_c, residual, jac = _polish_intersection(p, run.theta_E[k:])
    if not residual <= 1e-8:
        return EmConversionResult(False, None, None, None, np.inf, it,
                                  f"intersection polish failed ({status})")
    # A genuine (transversal) intersection has a regular defining Jacobian;
    # a supremum approached at infinity leaves a numerically singular one
    # along the drift direction even when the residual is tiny.
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= 1e-8 * svals[0]:
        return EmConversionResult(False, None, None, None, np.inf, it,
                                  "degenerate intersection: supremum not attained "
                                  "in the interior")
    theta_a = p.dual_matrix @ theta_c
    capacity = divergence(p.sys, p.m_ambient(theta_a), p.e_ambient(theta_c))
    return EmConversionResult(True, float(capacity), theta_a, theta_c, residual, it)


def _polish_intersection(p: ReverseEmProblem, theta_c: Array) -> Tuple[Array, float, Array]:
    """Damped Newton on the intersection equation
    dual_matrix^T grad F_M(dual_matrix theta_c) = grad F_E(theta_c), for at
    most 60 steps or until the residual norm is 1e-12; returns the point,
    its residual norm, which is infinite when a step fails, and the
    equation's Jacobian there."""
    x = np.asarray(theta_c, dtype=float).copy()

    def res_jac(z):
        _, gm, jm = p.M_system.value_grad_hess(p.dual_matrix @ z)
        _, ge, je = p.E_system.value_grad_hess(z)
        return (p.dual_matrix.T @ gm - ge,
                p.dual_matrix.T @ jm @ p.dual_matrix - je)

    r, jac = res_jac(x)
    rnorm = np.linalg.norm(r)
    for _ in range(60):
        if rnorm <= 1e-12:
            break
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return x, math.inf, jac
        t = 1.0
        while t > 1e-12:
            x_new = x + t * step
            if np.max(np.abs(x_new)) > _EM_NORM_GUARD:
                t *= 0.5
                continue
            try:
                r_new, jac_new = res_jac(x_new)
            except RevemError:
                t *= 0.5
                continue
            if np.linalg.norm(r_new) < rnorm:
                x, r, jac, rnorm = x_new, r_new, jac_new, np.linalg.norm(r_new)
                break
            t *= 0.5
        else:
            return x, math.inf, jac
    return x, float(rnorm), jac


def minimize_split_potential(sys_b: BregmanSystem, mat: Array, rhs: Array) -> Array:
    """Minimizer of the split potential F_b over {theta_b : mat @ theta_b = rhs}.

    The least-norm solution plus a convex minimization over the kernel of
    ``mat``; this single minimization is the whole non-iterative method.
    Raises InfeasibleSystemError when rhs is outside the column space.
    """
    theta_b0 = least_norm_solve(mat, rhs)
    kernel = kernel_basis(mat)
    if kernel.shape[1] == 0:
        return theta_b0

    def fgh(te):
        f, g, h = sys_b.value_grad_hess(theta_b0 + kernel @ te)
        return f, kernel.T @ g, kernel.T @ h @ kernel

    res = minimize_fgh(fgh, np.zeros(kernel.shape[1]))
    if not res.converged:
        raise ProjectionError("split-potential minimization stalled")
    return theta_b0 + kernel @ res.point


def split_maximizer(split: Split) -> SplitMaximizer:
    """The paper's non-iterative formula, for every channel kind.

    Minimizes F_b over {moments @ theta_b = dual_offset}, solves
    moments^T eta_a = grad F_b(theta_b_bar) for the input weights and takes
    F_b(theta_b_bar) - H_last as the candidate value.  Raises
    DegenerateChannelError when ``moments`` is row-rank deficient: the
    inputs are linearly dependent, or outnumber the output dimensions.
    """
    if np.linalg.matrix_rank(split.moments, tol=1e-10) < split.moments.shape[0]:
        raise DegenerateChannelError(
            "moment matrix is row-rank deficient (dependent inputs, or more "
            "inputs than output dimensions)")
    theta_b = minimize_split_potential(split.sys_b, split.moments, split.dual_offset)
    g_b = split.sys_b.gradient(theta_b)
    eta_a = least_norm_solve(split.moments.T, g_b)
    return SplitMaximizer(theta_b, np.append(eta_a, 1.0 - eta_a.sum()),
                          split.sys_b.potential(theta_b) - split.last_entropy,
                          float(np.linalg.norm(split.moments.T @ eta_a - g_b)))


def non_iterative(p: ReverseEmProblem) -> NonIterativeResult:
    """Locate the maximizer by one convex minimization in the split potential.

    Requires the identity leading block and the split; a row-rank-deficient
    moment matrix raises DegenerateChannelError.  When the input weights of
    ``split_maximizer`` leave the open simplex, the image of the categorical
    gradient map, the supremum is not attained in the interior and a
    nonexistence report is returned instead of a maximizer.  Inside it, the
    categorical inverse is theta_a_bar = log(eta_a / eta_last).
    """
    if not p.leading_identity_block or p.split is None:
        raise ConditionViolationError(
            "non-iterative method needs the identity leading block and the "
            "split potentials")
    sol = split_maximizer(p.split)
    eta_a = sol.weights[:-1]
    if not np.all(sol.weights > 0):
        return NonIterativeResult(
            exists=False, capacity=None, theta_a=None, eta_a=eta_a,
            theta_c=None, theta_b_bar=sol.theta_b_bar,
            message="maximum not attained in the interior: input weights "
                    f"{sol.weights} leave the open simplex")
    theta_a_bar = np.log(eta_a / sol.weights[-1])
    return NonIterativeResult(
        exists=True, capacity=float(sol.value),
        theta_a=theta_a_bar + p.split.dual_offset, eta_a=eta_a,
        theta_c=np.concatenate([theta_a_bar, sol.theta_b_bar]),
        theta_b_bar=sol.theta_b_bar)


def build_geometry(sys: BregmanSystem, feature_vecs: Array, generator_vecs: Array,
                   k: int, eta_uniform: Array, split: Optional[Split]
                   ) -> CapacityGeometry:
    """The capacity geometry of a channel with k + 1 inputs.

    The generators of the exponential family (columns of ``generator_vecs``)
    are fitted in the feature basis (columns of ``feature_vecs``) by least
    squares; the mixture family fixes the trailing natural parameters at the
    uniform-input point, the gradient-map preimage of ``eta_uniform``.
    ``split`` is the product split of the exponential potential, or None
    when it has none.  The first k features must be the indicators of
    inputs 1..k (see ``CapacityGeometry``).
    """
    v_mat, *_ = np.linalg.lstsq(feature_vecs, generator_vecs, rcond=None)
    if np.max(np.abs(feature_vecs @ v_mat - generator_vecs)) > 1e-9:
        raise InvalidChannelError("generators escape the feature span")
    d = sys.dim
    family_e = ExponentialSubfamily(v_mat, np.zeros(d))
    family_m = MixtureSubfamily(np.eye(d), k, np.zeros(d - k))
    theta_uniform = natural_param(sys, eta_uniform, grad_tol=1e-12)
    rem = ReverseEmProblem(sys=sys, family_E=family_e, family_M=family_m,
                           theta_tail=theta_uniform[k:], split=split)
    return CapacityGeometry(rem, theta_uniform[:k])
