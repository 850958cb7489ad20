"""Classical channel capacity: dual functions, the reverse-em geometry, the
iterative and em outcome assembly shared by every channel kind, the
non-iterative algorithm with its negative-support subset recursion, and the
Blahut-Arimoto oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .bregman import classical_system
from .errors import (DegenerateChannelError, InfeasibleSystemError,
                     InvalidChannelError)
from .reverse_em import (CapacityGeometry, build_geometry, em_conversion,
                         minimize_split_potential, solve_reverse_em)

Array = np.ndarray

# Inputs whose solved weight is below -NEG_TOL are reported as negative
# support; at the probability-vector tolerance scale of the outcomes.
NEG_TOL = 1e-9

# Weight of the uniform distribution mixed into every channel (and, for cq
# channels, of the maximally mixed state) for the geometry only, so that zero
# entries keep the potentials finite.
GEOMETRY_REGULARIZATION = 1e-12


@dataclass(eq=False)
class Channel:
    """Discrete memoryless channel; column x of ``matrix`` is W_x."""

    matrix: Array  # (n_outputs, n_inputs)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.size == 0:
            raise InvalidChannelError("channel matrix must be 2-d and nonempty")
        if np.any(self.matrix < -1e-12):
            raise InvalidChannelError("channel matrix has negative entries")
        sums = self.matrix.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidChannelError(
                f"column {worst + 1} sums to {sums[worst]:.12g}, expected 1")

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[0]


@dataclass
class CapacityOutcome:
    """Capacity value (nats), achieving input distribution and diagnostics.

    ``input_distribution`` may contain negatives when ``negative_support``
    is nonempty (the boundary-optimum diagnostic of the non-iterative
    method); ``negative_support`` lists the offending 0-based inputs.
    """

    capacity: float
    input_distribution: Array
    negative_support: Tuple[int, ...]
    method: str
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True


def entropy(dist: Array) -> float:
    """Shannon entropy in nats with the 0 log 0 = 0 convention."""
    dist = np.asarray(dist, dtype=float)
    pos = dist[dist > 0]
    return float(-np.sum(pos * np.log(pos)))


def kl_divergence(p: Array, q: Array) -> float:
    """KL divergence D(p || q) in nats; infinite on support violation."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def mutual_information(matrix: Array, q: Array) -> float:
    """I(q, W) = sum_x q(x) D(W_x || W q) in nats."""
    matrix = np.asarray(matrix, dtype=float)
    q = np.asarray(q, dtype=float)
    out = matrix @ q
    total = 0.0
    for x in range(matrix.shape[1]):
        if q[x] > 0:
            total += q[x] * kl_divergence(matrix[:, x], out)
    return float(total)


def blahut_arimoto(channel: Channel, tol: float = 1e-10,
                   max_iter: int = 5_000_000) -> CapacityOutcome:
    """Classical alternating-maximization capacity solver.

    Stops when the max-min bound gap (max_x D(W_x||Wq) - I(q,W)) drops
    below ``tol``; the returned capacity I(q,W) then underestimates the true
    capacity by at most that gap.
    """
    mat = channel.matrix
    n1 = channel.n_inputs
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(mat > 0, mat * np.log(np.where(mat > 0, mat, 1.0)), 0.0)
    col_neg_entropy = plogp.sum(axis=0)

    q = np.full(n1, 1.0 / n1)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        out = mat @ q
        log_out = np.log(np.maximum(out, 1e-300))
        d_x = col_neg_entropy - mat.T @ log_out
        lower = float(q @ d_x)
        gap = float(np.max(d_x) - lower)
        if gap < tol:
            break
        q = q * np.exp(d_x - np.max(d_x))
        q = q / q.sum()
    capacity = float(q @ (col_neg_entropy - mat.T @ np.log(np.maximum(mat @ q, 1e-300))))
    return CapacityOutcome(capacity, q, (), "ba", iterations=iterations,
                           residual=gap, converged=gap < tol)


def _difference_duals(reference: Array) -> Array:
    """Adjacent-difference dual functions orthogonal to the reference column.

    Columns are normalized so the construction stays well conditioned for
    nearly deterministic reference distributions.
    """
    reference = np.asarray(reference, dtype=float)
    n2 = reference.size
    f = np.zeros((n2, n2 - 1))
    for j in range(n2 - 1):
        f[j, j] = reference[j + 1]
        f[j + 1, j] = -reference[j]
        norm = np.linalg.norm(f[:, j])
        if norm == 0.0:
            raise DegenerateChannelError(
                "difference dual construction degenerates (zero reference entries)")
        f[:, j] /= norm
    if np.any(reference <= 0) and np.linalg.matrix_rank(f, tol=1e-10) != n2 - 1:
        raise DegenerateChannelError(
            "difference dual construction degenerates (zero reference entries)")
    return f


def find_dual_functions(channel: Channel) -> Array:
    """Dual output functions f_1..f_{n2-1} with the delta/zero moment pattern.

    After an output reordering, sum_y f_j(y) W_i(y) equals delta_{i,j} for
    i < n1 and vanishes for i = n1 (for every j).  Falls back to the generic
    difference construction (orthogonal to W_{n1} only) when no reordering
    yields the required invertible minor.
    """
    mat = channel.matrix
    n2, n1 = mat.shape
    rows = mat.T  # (n1, n2)
    if n1 > n2:
        raise DegenerateChannelError("dual construction requires n1 <= n2")

    _, _, piv = scipy.linalg.qr(rows, pivoting=True)
    chosen = list(piv[:n1])
    block = rows[:, chosen]
    if (np.linalg.matrix_rank(block, tol=1e-10) < n1
            or np.max(rows[-1, chosen]) <= 0):
        return _difference_duals(mat[:, -1])
    # Put a strictly positive W_{n1} entry in the reference slot.
    ref_local = int(np.argmax(rows[-1, chosen]))
    chosen[ref_local], chosen[-1] = chosen[-1], chosen[ref_local]
    perm = chosen
    a_mat = rows[:, perm]  # (n1, n1), invertible with a positive corner

    f = np.zeros((n2, n2 - 1))
    w_ref = a_mat[-1]
    m_til = a_mat[:-1, :-1] - np.outer(a_mat[:-1, -1], w_ref[:-1]) / w_ref[-1]
    try:
        # rows c_j satisfy sum_y c_{j,y} m_til_{i,y} = delta_{ij}
        c = np.linalg.inv(m_til).T
    except np.linalg.LinAlgError:
        return _difference_duals(mat[:, -1])
    for j in range(n1 - 1):
        f[perm[:-1], j] = c[j]
        f[perm[-1], j] = -float(c[j] @ w_ref[:-1]) / w_ref[-1]

    rest = [y for y in range(n2) if y not in perm]
    for offset, y0 in enumerate(rest):
        j = n1 - 1 + offset
        coeff = np.linalg.solve(a_mat, -rows[:, y0])
        f[perm, j] = coeff
        f[y0, j] = 1.0
    return f


def build_problem(channel: Channel) -> CapacityGeometry:
    """Construct the Bregman geometry whose mixture family is {W x q} and
    whose exponential family is the product distributions on X x Y.

    The geometry uses the channel regularized by GEOMETRY_REGULARIZATION;
    capacity reports use the raw channel.
    """
    mat = channel.matrix
    n2, n1 = mat.shape
    if n1 < 2 or n2 < 2:
        raise InvalidChannelError("geometry needs at least two inputs and outputs")
    reg = (1.0 - GEOMETRY_REGULARIZATION) * mat + GEOMETRY_REGULARIZATION / n2

    f = _difference_duals(reg[:, -1])
    h = reg.T @ f  # (n1, n2 - 1)
    k = n1 - 1
    d = n1 * n2 - 1
    l = n1 + n2 - 2

    feats = np.zeros((n1 * n2, d))
    gens = np.zeros((n1 * n2, l))
    for x in range(n1):
        sl = slice(x * n2, (x + 1) * n2)
        if x < n1 - 1:
            feats[sl, x] = 1.0
            feats[sl, k + x * (n2 - 1):k + (x + 1) * (n2 - 1)] = f - h[x]
            gens[sl, x] = 1.0
        else:
            feats[sl, k + x * (n2 - 1):k + (x + 1) * (n2 - 1)] = f
        gens[sl, k:] = f

    joint_uniform = (reg / n1).T.reshape(-1)
    entropies = np.array([entropy(reg[:, x]) for x in range(n1)])
    return build_geometry(
        classical_system(feats), feats, gens, k, feats.T @ joint_uniform,
        (classical_system(f), entropies))


def iterative_outcome(geo: CapacityGeometry, objective: Callable[[Array], float],
                      tol: float, max_iter: int) -> CapacityOutcome:
    """Natural-step reverse-em solve from the uniform input, reported as the
    raw channel's ``objective`` at the decoded input distribution."""
    trace = solve_reverse_em(geo.rem, geo.theta_a_uniform, stepper="natural",
                             tol=tol, max_iter=max_iter)
    q = geo.decode_input(trace.theta_a)
    return CapacityOutcome(objective(q), q, (), "iterative",
                           iterations=trace.iterations,
                           residual=float(trace.fixed_point_residuals[-1]),
                           converged=trace.converged)


def em_outcome(geo: CapacityGeometry,
               objective: Callable[[Array], float]) -> CapacityOutcome:
    """em-conversion solve, reported as ``objective`` at the decoded input
    distribution; NaN with ``converged=False`` when the auxiliary families
    do not intersect."""
    conv = em_conversion(geo.rem)
    found = conv.intersection_found
    q = geo.decode_input(conv.theta_a) if found else np.full(geo.rem.k + 1, np.nan)
    return CapacityOutcome(objective(q) if found else float("nan"), q, (), "em",
                           iterations=conv.iterations, residual=conv.residual,
                           converged=found)


def capacity_iterative(channel: Channel, tol: float = 1e-10,
                       max_iter: int = 10000) -> CapacityOutcome:
    """Reverse-em capacity from the uniform input coordinate (natural step)."""
    return iterative_outcome(build_problem(channel),
                             lambda q: mutual_information(channel.matrix, q),
                             tol, max_iter)


def capacity_em(channel: Channel) -> CapacityOutcome:
    """em-conversion capacity; NaN and ``converged=False`` on a boundary optimum."""
    return em_outcome(build_problem(channel),
                      lambda q: mutual_information(channel.matrix, q))


def restrict_inputs(n_inputs: int, input_subset: Optional[Sequence[int]]
                    ) -> Tuple[Tuple[int, ...], Optional[CapacityOutcome]]:
    """The checked input subset of a special-case solve (all inputs when
    None) and, for a single input, its point-mass outcome of capacity 0."""
    subset = tuple(range(n_inputs) if input_subset is None else map(int, input_subset))
    if len(set(subset)) != len(subset) or any(x < 0 or x >= n_inputs for x in subset):
        raise InvalidChannelError("input subset must be distinct valid indices")
    if len(subset) != 1:
        return subset, None
    return subset, CapacityOutcome(0.0, np.eye(n_inputs)[subset[0]], (), "noniterative")


def special_outcome(subset: Tuple[int, ...], n_inputs: int, columns: Array,
                    target: Array, value: float) -> CapacityOutcome:
    """Outcome of a non-iterative candidate ``value`` on an input subset.

    The input weights w solve columns @ w = target with sum(w) = 1 by least
    squares, where column i is the output of input subset[i]; weights below
    -NEG_TOL are reported in ``negative_support``.
    """
    lhs = np.vstack([columns, np.ones(len(subset))])
    rhs = np.concatenate([target, [1.0]])
    weights, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    solve_residual = float(np.linalg.norm(lhs @ weights - rhs))
    if solve_residual > 1e-8:
        raise DegenerateChannelError(
            f"output outside the span of the channel outputs (residual {solve_residual:.3e})")
    negatives = tuple(subset[i] for i in range(len(subset)) if weights[i] < -NEG_TOL)
    full_dist = np.zeros(n_inputs)
    full_dist[list(subset)] = weights
    return CapacityOutcome(float(value), full_dist, negatives, "noniterative",
                           residual=solve_residual)


def capacity_special(channel: Channel,
                     input_subset: Optional[Sequence[int]] = None) -> CapacityOutcome:
    """Non-iterative candidate capacity on a restricted input set.

    Returns the candidate value together with the solved input weights; any
    weights below -NEG_TOL are reported in ``negative_support`` and signal a
    boundary optimum (the candidate value then only bounds the capacity).
    """
    mat = channel.matrix
    n1 = channel.n_inputs
    subset, single = restrict_inputs(n1, input_subset)
    if single is not None:
        return single

    cols = mat[:, subset]
    f = find_dual_functions(Channel(cols))
    moments = cols.T @ f  # (m, n2-1)
    theta_a_dag = np.array([-entropy(cols[:, i]) + entropy(cols[:, -1])
                            for i in range(len(subset) - 1)])
    sys_eb = classical_system(f)
    try:
        theta_b = minimize_split_potential(sys_eb, moments[:-1], theta_a_dag)
    except InfeasibleSystemError as exc:
        raise DegenerateChannelError(f"moment system unsolvable: {exc}") from exc
    value = -entropy(cols[:, -1]) + sys_eb.potential(theta_b)
    return special_outcome(subset, n1, cols, sys_eb.distribution(theta_b), value)


def subset_recursion(n_inputs: int,
                     evaluate: Callable[[Tuple[int, ...]], CapacityOutcome]
                     ) -> CapacityOutcome:
    """Negative-support recursion over input subsets.

    Breadth-first over removal sets: a frontier set whose restricted channel
    has empty negative support becomes a candidate; otherwise it is extended
    by its negative-support elements, pruned against the best candidate of
    the previous levels.  Memoizes ``evaluate`` per subset.
    """
    memo: Dict[Tuple[int, ...], CapacityOutcome] = {}

    def ev(sub: Tuple[int, ...]) -> CapacityOutcome:
        if sub not in memo:
            memo[sub] = evaluate(sub)
        return memo[sub]

    full = tuple(range(n_inputs))
    first = ev(full)
    if not first.negative_support:
        return first

    best: Optional[CapacityOutcome] = None
    frontier = [frozenset([x]) for x in first.negative_support]
    seen = set(frontier)
    while frontier:
        level_best = best
        next_frontier = []
        for removed in frontier:
            sub = tuple(x for x in full if x not in removed)
            if not sub:
                continue
            res = ev(sub)
            if not res.negative_support:
                if best is None or res.capacity > best.capacity:
                    best = res
            elif len(sub) > 1 and (level_best is None
                                   or res.capacity > level_best.capacity):
                for x in res.negative_support:
                    grown = removed | {x}
                    if grown not in seen:
                        seen.add(grown)
                        next_frontier.append(grown)
        frontier = next_frontier
    if best is None:
        raise DegenerateChannelError("no input subset with empty negative support")
    return best


def capacity_general(channel: Channel) -> CapacityOutcome:
    """Non-iterative capacity for general channels (boundary optima included).

    Exact duplicate input columns are merged (the reported distribution puts
    their mass on the first occurrence); inputs beyond that are never dropped.
    Requires n1 <= n2 after merging.
    """
    mat = channel.matrix
    n1 = channel.n_inputs
    keep = []
    for x in range(n1):
        if not any(np.array_equal(mat[:, x], mat[:, y]) for y in keep):
            keep.append(x)
    reduced = Channel(mat[:, keep]) if len(keep) < n1 else channel
    if reduced.n_inputs > reduced.n_outputs:
        raise InvalidChannelError(
            "non-iterative path requires n1 <= n2; use blahut_arimoto or "
            "capacity_iterative for wide channels")

    result = subset_recursion(
        reduced.n_inputs,
        lambda sub: capacity_special(reduced, sub))
    dist = np.zeros(n1)
    dist[list(keep)] = result.input_distribution
    return CapacityOutcome(result.capacity, dist, tuple(
        keep[i] for i in result.negative_support), "noniterative",
        residual=result.residual)
