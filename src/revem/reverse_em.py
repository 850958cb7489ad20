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
  moment matrix (``minimize_split_potential``).

``build_geometry`` builds the ``CapacityGeometry`` of every capacity module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg

from .bregman import BregmanSystem, classical_system, divergence, natural_param
from .errors import (ConditionViolationError, ImageMembershipError,
                     InvalidChannelError, ProjectionError, RevemError)
from .families import (ExponentialSubfamily, MixtureSubfamily, e_projection,
                       m_projection)
from .numerics import _spd_solve, kernel_basis, least_norm_solve, minimize_fgh

Array = np.ndarray

STEPPERS = ("mixture", "natural", "eps")


@dataclass(eq=False)
class ReverseEmProblem:
    """A paired (mixture, exponential) instance.

    ``family_M`` must coincide with the affine slice
    {U @ (theta_a, theta_tail)} of natural-parameter space.  ``split`` is
    the product split (F_a, F_b) of the exponential potential, given with
    the constant ``dual_offset`` between the two dual coordinate maps.
    ``leading_identity_block`` records whether the leading k x k block of
    the dual matrix is the identity (within 1e-12), which the natural step
    and the non-iterative method need.
    """

    sys: BregmanSystem
    family_E: ExponentialSubfamily
    family_M: MixtureSubfamily
    theta_tail: Array
    split: Optional[Tuple[BregmanSystem, BregmanSystem]] = None
    dual_offset: Optional[Array] = None

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
        sys_a, sys_b = p.split

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


class _ProductSystem(BregmanSystem):
    """Direct sum of two Bregman systems (block-diagonal Hessian)."""

    def __init__(self, first: BregmanSystem, second: BregmanSystem):
        self.first = first
        self.second = second
        self.split_at = first.dim
        super().__init__(first.dim + second.dim, self._pot, self._grad, self._hess)

    def _parts(self, x):
        return x[:self.split_at], x[self.split_at:]

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
        return fa + fb, np.concatenate([ga, gb])

    def value_grad_hess(self, x):
        a, b = self._parts(np.asarray(x, dtype=float))
        fa, ga, ha = self.first.value_grad_hess(a)
        fb, gb, hb = self.second.value_grad_hess(b)
        return (fa + fb, np.concatenate([ga, gb]), scipy.linalg.block_diag(ha, hb))


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
    theta_c, residual = _polish_intersection(p, run.theta_E[k:])
    if not residual <= 1e-8:
        return EmConversionResult(False, None, None, None, np.inf, it,
                                  f"intersection polish failed ({status})")
    # A genuine (transversal) intersection has a regular defining Jacobian;
    # a supremum approached at infinity leaves a numerically singular one
    # along the drift direction even when the residual is tiny.
    jac = (p.dual_matrix.T @ p.M_system.hessian(p.dual_matrix @ theta_c) @ p.dual_matrix
           - p.E_system.hessian(theta_c))
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= 1e-8 * svals[0]:
        return EmConversionResult(False, None, None, None, np.inf, it,
                                  "degenerate intersection: supremum not attained "
                                  "in the interior")
    theta_a = p.dual_matrix @ theta_c
    capacity = divergence(p.sys, p.m_ambient(theta_a), p.e_ambient(theta_c))
    return EmConversionResult(True, float(capacity), theta_a, theta_c, residual, it)


def _polish_intersection(p: ReverseEmProblem, theta_c: Array) -> Tuple[Array, float]:
    """Damped Newton on the intersection equation
    dual_matrix^T grad F_M(dual_matrix theta_c) = grad F_E(theta_c), for at
    most 60 steps or until the residual norm is 1e-12; returns the point and
    its residual norm, which is infinite when a step fails."""
    x = np.asarray(theta_c, dtype=float).copy()

    def res_jac(z):
        gm = p.M_system.gradient(p.dual_matrix @ z)
        ge = p.E_system.gradient(z)
        r = p.dual_matrix.T @ gm - ge
        jm = p.M_system.hessian(p.dual_matrix @ z)
        je = p.E_system.hessian(z)
        return r, p.dual_matrix.T @ jm @ p.dual_matrix - je

    r, jac = res_jac(x)
    rnorm = np.linalg.norm(r)
    for _ in range(60):
        if rnorm <= 1e-12:
            break
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return x, math.inf
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
            return x, math.inf
    return x, float(rnorm)


def compute_dual_offset(p: ReverseEmProblem, n_checks: int = 3,
                         rng: Optional[np.random.Generator] = None,
                         check_tol: float = 1e-8) -> Array:
    """Offset between the two dual coordinate maps, measured numerically.

    Evaluated at ``n_checks`` mixture parameters; inconsistency raises
    ConditionViolationError.  The reference for the closed-form offset that
    ``build_geometry`` derives from the input entropies.
    """
    if p.split is None:
        raise ConditionViolationError("the dual offset needs the split potentials")
    rng = np.random.default_rng(0) if rng is None else rng
    sys_a = p.split[0]
    values = []
    for _ in range(max(n_checks, 1)):
        theta_probe = rng.normal(scale=0.3, size=p.k)
        eta = p.M_system.gradient(theta_probe)
        theta_ea = natural_param(sys_a, eta)
        values.append(theta_probe - theta_ea)
    values = np.asarray(values)
    spread = float(np.max(np.abs(values - values[0]))) if len(values) > 1 else 0.0
    if spread > check_tol:
        raise ConditionViolationError(
            f"dual offset is not constant (spread {spread:.3e})")
    return values[0]


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


def non_iterative(p: ReverseEmProblem) -> NonIterativeResult:
    """Locate the maximizer by one convex minimization in the split potential.

    Requires the identity leading block, the split potentials with their
    dual offset, and a trailing dual block of full row rank.  When the
    resulting dual coordinate lies outside the image of the gradient map of
    the first split potential, the supremum is not attained in the interior
    and a nonexistence report is returned instead of a maximizer.
    """
    if not p.leading_identity_block or p.split is None or p.dual_offset is None:
        raise ConditionViolationError(
            "non-iterative method needs the identity leading block and the "
            "split potentials with their dual offset")
    sys_a, sys_b = p.split
    tail = p.dual_tail
    if np.linalg.matrix_rank(tail, tol=1e-10) < p.k:
        raise ConditionViolationError(
            "the trailing dual block is row-rank deficient")

    theta_b_bar = minimize_split_potential(sys_b, tail, p.dual_offset)
    eta_b = sys_b.gradient(theta_b_bar)
    eta_a = least_norm_solve(tail.T, eta_b)
    try:
        theta_a_bar = natural_param(sys_a, eta_a)
    except ImageMembershipError as exc:
        return NonIterativeResult(
            exists=False, capacity=None, theta_a=None, eta_a=eta_a,
            theta_c=None, theta_b_bar=theta_b_bar,
            message=f"maximum not attained in the interior: {exc}")

    theta_a_max = theta_a_bar + p.dual_offset
    theta_c = np.concatenate([theta_a_bar, theta_b_bar])
    capacity = divergence(p.sys, p.m_ambient(theta_a_max), p.e_ambient(theta_c))
    return NonIterativeResult(
        exists=True, capacity=float(capacity), theta_a=theta_a_max,
        eta_a=eta_a, theta_c=theta_c, theta_b_bar=theta_b_bar)


def build_geometry(sys: BregmanSystem, feature_vecs: Array, generator_vecs: Array,
                   k: int, eta_uniform: Array,
                   split_b: Optional[Tuple[BregmanSystem, Array]]
                   ) -> CapacityGeometry:
    """The capacity geometry of a channel with k + 1 inputs.

    The generators of the exponential family (columns of ``generator_vecs``)
    are fitted in the feature basis (columns of ``feature_vecs``) by least
    squares; the mixture family fixes the trailing natural parameters at the
    uniform-input point, the gradient-map preimage of ``eta_uniform``.
    ``split_b`` is None or a pair (F_b, per-input entropies): the exponential
    potential then splits into input indicators and F_b, and the dual
    offset is the entropy difference to the last input.  The first k
    features must be the indicators of inputs 1..k (see ``CapacityGeometry``).
    """
    v_mat, *_ = np.linalg.lstsq(feature_vecs, generator_vecs, rcond=None)
    if np.max(np.abs(feature_vecs @ v_mat - generator_vecs)) > 1e-9:
        raise InvalidChannelError("generators escape the feature span")
    d = sys.dim
    family_e = ExponentialSubfamily(v_mat, np.zeros(d))
    family_m = MixtureSubfamily(np.eye(d), k, np.zeros(d - k))
    theta_uniform = natural_param(sys, eta_uniform, grad_tol=1e-12)
    split = dual_offset = None
    if split_b is not None:
        sys_b, entropies = split_b
        split = (classical_system(np.eye(k + 1, k)), sys_b)
        dual_offset = -entropies[:k] + entropies[-1]
    rem = ReverseEmProblem(sys=sys, family_E=family_e, family_M=family_m,
                           theta_tail=theta_uniform[k:], split=split,
                           dual_offset=dual_offset)
    return CapacityGeometry(rem, theta_uniform[:k])
