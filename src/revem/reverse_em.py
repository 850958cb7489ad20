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

Every step maps its new input weights back to the mixture coordinate in
closed form: the mixture side of every capacity geometry is the categorical
potential with per-input offsets (``ReverseEmProblem``).

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
                     ImageMembershipError, InfeasibleSystemError,
                     InvalidChannelError, InvalidSpecError, ProjectionError,
                     RevemError)
from .families import (ExponentialSubfamily, MixtureSubfamily, e_projection,
                       m_projection)
from .numerics import (_require_consistent, _spd_solve, least_norm_solve,
                       minimize_fgh)

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


def categorical_inverse(weights: Array) -> Array:
    """log(w_i / w_last) for i < k: the inverse of the gradient map of the
    categorical potential log(1 + sum_i exp theta_i) at the k + 1 weights
    ``weights``.  Raises ImageMembershipError unless every weight is
    positive, since the image of that map is the open simplex."""
    w = np.asarray(weights, dtype=float)
    if not np.all(w > 0):
        raise ImageMembershipError(
            f"input weights {w} leave the open simplex, the image of the "
            "categorical gradient map")
    return np.log(w[:-1]) - np.log(w[-1])


@dataclass(eq=False)
class ReverseEmProblem:
    """A paired (mixture, exponential) instance.

    ``family_M`` must coincide with the affine slice
    {U @ (theta_a, theta_tail)} of natural-parameter space.  ``split`` is
    the product split of the exponential potential, when it has one.
    ``leading_identity_block`` records whether the leading k x k block of
    the dual matrix is the identity (within 1e-12), which the natural step
    and the non-iterative method need.

    Contract: the k free coordinates of ``family_M`` are the indicators of
    inputs 1..k of k + 1, and every other feature is local to one input.
    The mixture potential is then categorical with per-input offsets,
    F_M(theta_a) = log(e^{b_last} + sum_i e^{theta_a,i + b_i}), where b_x is
    the log-partition of input x's block at theta_tail.  ``M_system`` is
    that (k + 1)-point system, with b read from one evaluation of the
    ambient restriction at theta_a = 0; ``m_shift`` = b[:k] - b_last, and
    ``m_inverse`` inverts its gradient map in closed form.

    The tail moments of ``family_M``, its ``targets``, are zero and so is
    the offset of ``family_E`` (InvalidSpecError otherwise).  The divergence
    from a mixture member theta_a to an exponential member theta_c then
    reads from F_M, F_E and the dual matrix alone (``_objective``), so no
    solve evaluates the ambient system ``sys`` after construction.
    """

    sys: BregmanSystem
    family_E: ExponentialSubfamily
    family_M: MixtureSubfamily
    theta_tail: Array
    split: Optional[Split] = None

    dual_matrix: Array = field(init=False)
    leading_identity_block: bool = field(init=False)
    E_system: BregmanSystem = field(init=False)
    M_system: ClassicalSystem = field(init=False)
    m_shift: Array = field(init=False)

    def __post_init__(self):
        self.theta_tail = np.asarray(self.theta_tail, dtype=float)
        if np.any(self.family_M.targets != 0) or np.any(self.family_E.offset != 0):
            raise InvalidSpecError(
                "reverse-em problems need zero mixture targets and a zero "
                "exponential offset")
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
        f0, g0 = self.sys.restrict(u[:, :k], m_offset).value_grad(np.zeros(k))
        offsets = f0 + np.log(np.append(g0, 1.0 - g0.sum()))
        self.M_system = ClassicalSystem(np.eye(k + 1, k), offsets)
        self.m_shift = offsets[:k] - offsets[k]

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

    def m_inverse(self, weights: Array) -> Array:
        """Mixture coordinate theta_a of the member with the k + 1 input
        weights ``weights``: the closed-form inverse of M_system's gradient
        map, raising ImageMembershipError outside the open simplex."""
        return categorical_inverse(weights) - self.m_shift

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


def _objective(p: ReverseEmProblem, theta_a: Array, theta_c: Array) -> float:
    """D(theta_a || theta_c) from the mixture member theta_a to the
    exponential member theta_c, read from the two potentials:
    eta_a . (theta_a - dual_matrix theta_c) - F_M(theta_a) + F_E(theta_c),
    with eta_a = grad F_M(theta_a).  It holds for any theta_c, because a
    mixture member's tail moments vanish (see ``ReverseEmProblem``)."""
    f_m, eta_a = p.M_system.value_grad(theta_a)
    return float(eta_a @ (theta_a - p.dual_matrix @ theta_c) - f_m
                 + p.E_system.potential(theta_c))


def _objective_and_residual(p: ReverseEmProblem, theta_a: Array,
                            state: Dict) -> Tuple[float, float]:
    """Objective D(theta_a || theta_c) and the fixed-point residual
    |dual_matrix theta_c - theta_a| at theta_c = ``state["theta_c"]``, the
    m-projection of theta_a that every inverse step leaves for the iterate
    it returns.  When the state holds none, it is solved for and stored.
    """
    theta_a = np.asarray(theta_a, dtype=float)
    theta_c = state.get("theta_c")
    if theta_c is None:
        target = p.dual_matrix.T @ p.M_system.gradient(theta_a)
        theta_c = state["theta_c"] = natural_param(p.E_system, target)
    residual = float(np.linalg.norm(p.dual_matrix @ theta_c - theta_a))
    return _objective(p, theta_a, theta_c), residual


_EM_NORM_GUARD = 200.0

# em_minimize converges once the divergence moves by less than this.
EM_TOL = 1e-13


def em_minimize(sys: BregmanSystem, family_M: MixtureSubfamily,
                family_E: ExponentialSubfamily, theta_init: Array,
                max_iter: int = 5000) -> EmResult:
    """Alternating e-/m-projections minimizing the divergence between the
    mixture and exponential subfamilies; returns the minimized divergence.
    Converges once one pass moves the divergence by less than EM_TOL.

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
        converged = not diverged and abs(gap - new_gap) < EM_TOL
        gap = new_gap
        if diverged or converged:
            break
    return EmResult(float(gap), theta_m, theta_e, it, converged)


def _inverse_step_dual(p: ReverseEmProblem, theta_a: Array,
                       state: Optional[Dict], extra_stop=None) -> Array:
    """The inverse map through the dual problem: minimize
    F_E*(eta_hat dual_matrix) - <eta_hat, theta_a> over eta_hat in R^k, then
    invert the mixture-family gradient map at the minimizer, the input
    weights (eta_hat, 1 - sum eta_hat).

    The inner gradient-map inversions are solved two decades tighter than
    the dual minimization so their error does not dominate its gradient.
    Each is warm-started at the last one, the first at ``state["theta_c"]``,
    the m-projection of theta_a.
    """
    grad_tol = 1e-9
    state = {} if state is None else state
    theta_a = np.asarray(theta_a, dtype=float)
    dual = p.dual_matrix
    memo: Dict = {"key": None, "theta_c": state.get("theta_c")}

    def solve_c(eta_hat):
        key = eta_hat.tobytes()
        if memo["key"] != key:
            memo["theta_c"] = natural_param(
                p.E_system, dual.T @ eta_hat, theta_init=memo["theta_c"],
                grad_tol=grad_tol * 1e-2)
            memo["key"] = key
        return memo["theta_c"]

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

    res = minimize_fgh(fgh, p.M_system.gradient(theta_a), grad_tol=grad_tol,
                       extra_stop=extra_stop)
    if not res.converged:
        raise ProjectionError(
            f"inner dual minimization stalled (gradient norm {res.gradient_norm:.3e})")
    # The E-point of the minimizer is the m-projection of the new iterate.
    state["theta_c"] = solve_c(res.point)
    return p.m_inverse(np.append(res.point, 1.0 - res.point.sum()))


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
    # Warm start at the m-projection of theta_a, when the state holds it.
    theta_c = state.get("theta_c")
    tb0 = np.zeros(p.l - p.k) if theta_c is None else theta_c[p.k:]

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
    # The E-point of the minimizer is the m-projection of the new iterate.
    theta_c = np.concatenate([theta_a - tail @ tb, tb])
    state["theta_c"] = theta_c
    if p.split is not None:
        # The new weights are grad F_a(theta_c[:k]), and F_M is F_a shifted.
        return theta_c[:p.k] - p.m_shift
    eta_a_new = p.E_system.gradient(theta_c)[:p.k]
    return p.m_inverse(np.append(eta_a_new, 1.0 - eta_a_new.sum()))


def solve_reverse_em(p: ReverseEmProblem, theta_init: Array,
                     stepper: str = "natural", tol: float = 1e-10,
                     max_iter: int = 10000, eps: Optional[float] = None,
                     residual_tol: float = 1e-8) -> SolveTrace:
    """Iterate the chosen inverse step from theta_init, recording the
    objective and fixed-point residual, until the objective increment drops
    below ``tol`` or the residual below ``residual_tol``.  The iterate is
    the pair (theta_a, theta_c), theta_c its m-projection, which each step
    leaves in the state; the result is the last iterate, or for ``eps`` the
    best one."""
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}")
    if stepper == "eps" and (eps is None or eps <= 0):
        raise ValueError("eps stepper requires a positive eps")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")

    theta_a = np.asarray(theta_init, dtype=float).copy()
    state: Dict = {}
    objectives: List[float] = []
    residuals: List[float] = []
    capacity, best = -math.inf, theta_a
    converged = False

    for _ in range(max_iter + 1):
        obj, residual = _objective_and_residual(p, theta_a, state)
        objectives.append(obj)
        residuals.append(residual)
        if stepper != "eps" or obj > capacity:
            capacity, best = obj, theta_a
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

    return SolveTrace(
        objective_values=np.asarray(objectives),
        fixed_point_residuals=np.asarray(residuals),
        iterations=len(objectives) - 1,
        capacity=float(capacity),
        theta_a=best,
        converged=converged,
    )


class _SumSystem(BregmanSystem):
    """F_1(a) + F_2(b) with (a, b) = _parts(x); here a = b = x, which is how
    a slice of a direct sum evaluates: as the sum of its factors' slices."""

    def __init__(self, first: BregmanSystem, second: BregmanSystem, dim: int):
        self.first = first
        self.second = second
        super().__init__(dim)

    def _parts(self, x):
        return x, x

    def _join(self, u, v):
        return u + v

    def potential(self, x):
        a, b = self._parts(np.asarray(x, dtype=float))
        return self.first.potential(a) + self.second.potential(b)

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
        run = em_minimize(prod, m_hat, e_hat, np.zeros(k + l), max_iter=max_iter)
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
    return EmConversionResult(True, _objective(p, theta_a, theta_c), theta_a,
                              theta_c, residual, it)


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


def _require_row_rank(svals: Array, k: int) -> None:
    """Raise DegenerateChannelError unless all k singular values of the
    k-row moment matrix exceed 1e-10."""
    if svals.size < k or not np.all(svals > 1e-10):
        raise DegenerateChannelError(
            "moment matrix is row-rank deficient (dependent inputs, or more "
            "inputs than output dimensions)")


def split_maximizer(split: Split) -> SplitMaximizer:
    """The paper's non-iterative formula, for every channel kind: one convex
    minimization, read from one SVD of the k x m moment matrix M.

    * Raises DegenerateChannelError unless M has full row rank, every
      singular value above 1e-10 (absolute): the inputs are linearly
      dependent, or outnumber the output dimensions.
    * Minimizes F_b over {M theta_b = dual_offset}: the least-norm point
      plus a damped-Newton minimization over the kernel of M, both cut at
      DEFAULT_RANK_TOL times the largest singular value.
    * Solves M^T eta_a = grad F_b(theta_b_bar) for the input weights with
      the same pseudo-inverse, and takes F_b(theta_b_bar) - H_last as the
      candidate value.

    Either solve raises InfeasibleSystemError when its residual exceeds
    1e-8 * (1 + |rhs|).
    """
    mat = split.moments
    k = mat.shape[0]
    # Dependent or wide inputs are reported as such even when they also
    # make the first solve infeasible.
    try:
        ln = least_norm_solve(mat, split.dual_offset)
    except InfeasibleSystemError as err:
        _require_row_rank(err.singular_values, k)
        raise
    _require_row_rank(ln.singular_values, k)
    theta_b0, kernel = ln.point, ln.kernel
    theta_b = theta_b0
    if kernel.shape[1]:
        def fgh(te):
            f, g, h = split.sys_b.value_grad_hess(theta_b0 + kernel @ te)
            return f, kernel.T @ g, kernel.T @ h @ kernel

        res = minimize_fgh(fgh, np.zeros(kernel.shape[1]))
        if not res.converged:
            raise ProjectionError("split-potential minimization stalled")
        theta_b = theta_b0 + kernel @ res.point
    g_b = split.sys_b.gradient(theta_b)
    eta_a = ln.pinv.T @ g_b
    residual = float(np.linalg.norm(mat.T @ eta_a - g_b))
    _require_consistent(residual, g_b, ln.singular_values)
    return SplitMaximizer(theta_b, np.append(eta_a, 1.0 - eta_a.sum()),
                          split.sys_b.potential(theta_b) - split.last_entropy,
                          residual)


def non_iterative(p: ReverseEmProblem) -> NonIterativeResult:
    """Locate the maximizer by one convex minimization in the split potential.

    Requires the identity leading block and the split; a row-rank-deficient
    moment matrix raises DegenerateChannelError.  When the input weights of
    ``split_maximizer`` leave the open simplex, the image of the categorical
    gradient map, the supremum is not attained in the interior and a
    nonexistence report is returned instead of a maximizer.  Inside it, the
    categorical inverse gives theta_a_bar = log(eta_a / eta_last), and the
    mixture coordinate is theta_a_bar - m_shift, as in ``m_inverse``.
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
    theta_a_bar = categorical_inverse(sol.weights)
    return NonIterativeResult(
        exists=True, capacity=float(sol.value),
        theta_a=theta_a_bar - p.m_shift, eta_a=eta_a,
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
