"""Classical channel capacity: the product split, the reverse-em geometry,
the iterative, em and non-iterative outcome assembly shared by every channel
kind, the negative-support subset recursion, and the Blahut-Arimoto oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .bregman import classical_system
from .errors import DegenerateChannelError, InvalidChannelError
from .numerics import kernel_basis
from .reverse_em import (CapacityGeometry, Split, build_geometry, em_conversion,
                         solve_reverse_em, split_maximizer)

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


def split(matrix: Array) -> Split:
    """Product split of the geometry of the channel with columns ``matrix``.

    The features of F_b are the orthonormal complement of the last column,
    so they are independent and span no constant (a constant c has inner
    product c with the last column).
    """
    f = kernel_basis(matrix[:, -1][None, :])  # (n2, n2 - 1)
    entropies = np.array([entropy(col) for col in matrix.T])
    return Split(classical_system(f), matrix[:, :-1].T @ f,
                 entropies[-1] - entropies[:-1], entropies[-1])


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

    sp = split(reg)
    f = sp.sys_b.features
    h = sp.moments  # (n1 - 1, n2 - 1)
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
    return build_geometry(
        classical_system(feats), feats, gens, k, feats.T @ joint_uniform, sp)


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


def noniterative_outcome(sp: Split, subset: Tuple[int, ...],
                         n_inputs: int) -> CapacityOutcome:
    """``split_maximizer`` of the sub-channel on ``subset`` as an outcome
    over all ``n_inputs`` inputs; weights below -NEG_TOL are reported in
    ``negative_support``."""
    sol = split_maximizer(sp)
    negatives = tuple(x for x, w in zip(subset, sol.weights) if w < -NEG_TOL)
    full_dist = np.zeros(n_inputs)
    full_dist[list(subset)] = sol.weights
    return CapacityOutcome(float(sol.value), full_dist, negatives, "noniterative",
                           residual=sol.residual)


def oracle_outcome(value: float, n_inputs: int) -> CapacityOutcome:
    """Outcome of an oracle that reports a value but no input distribution."""
    return CapacityOutcome(value, np.full(n_inputs, np.nan), (), "oracle")


def capacity_special(channel: Channel,
                     input_subset: Optional[Sequence[int]] = None) -> CapacityOutcome:
    """Non-iterative candidate capacity on a restricted input set: the
    split maximizer of the sub-channel.

    Returns the candidate value together with the solved input weights; any
    weights below -NEG_TOL are reported in ``negative_support`` and signal a
    boundary optimum (the candidate value then only bounds the capacity).
    Linearly dependent restricted columns, or more of them than outputs,
    raise DegenerateChannelError.
    """
    subset, single = restrict_inputs(channel.n_inputs, input_subset)
    if single is not None:
        return single
    return noniterative_outcome(split(channel.matrix[:, subset]), subset,
                                channel.n_inputs)


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
