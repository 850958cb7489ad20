"""Classical channel capacity: the product split, the one X x Z x Y
reverse-em geometry (a plain channel is its case |Z| = 1, a wiretap channel
the general one), the iterative, em and non-iterative outcome assembly
shared by every channel kind, the negative-support subset recursion, and the
Blahut-Arimoto oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .bregman import ClassicalSystem, classical_system
from .errors import DegenerateChannelError, InvalidChannelError
from .numerics import kernel_basis
from .reverse_em import (CapacityGeometry, Split, build_geometry, em_conversion,
                         solve_reverse_em, split_maximizer)

Array = np.ndarray

# Inputs whose solved weight is below -NEG_TOL are reported as negative
# support; at the probability-vector tolerance scale of the outcomes.
NEG_TOL = 1e-9

# capacity_general merges input columns whose entries differ by at most
# this much; on the scale of split_maximizer's 1e-10 row-rank check, so that
# columns equal up to rounding do not reach it as a dependent pair.
DUPLICATE_TOL = 1e-10

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
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidChannelError("channel matrix has non-finite entries")
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


def _column_neg_entropies(matrix: Array) -> Array:
    """sum_y W(y|x) log W(y|x) of every column x, with 0 log 0 = 0."""
    pos = matrix > 0
    return np.where(pos, matrix * np.log(np.where(pos, matrix, 1.0)), 0.0).sum(axis=0)


def _divergences(matrix: Array, neg_entropies: Array, q: Array) -> Array:
    """s_x(q) = D(W_x || W q) in nats of every input x, given
    ``_column_neg_entropies(matrix)``; an output that W q misses counts at
    log 1e-300.  q @ s(q) = I(q, W) <= capacity <= max_x s_x(q)."""
    return neg_entropies - matrix.T @ np.log(np.maximum(matrix @ q, 1e-300))


def mutual_information(matrix: Array, q: Array) -> float:
    """I(q, W) = sum_x q(x) D(W_x || W q) in nats, over the inputs with
    q(x) > 0."""
    matrix = np.asarray(matrix, dtype=float)
    q = np.asarray(q, dtype=float)
    s = _divergences(matrix, _column_neg_entropies(matrix), q)
    used = q > 0
    return float(q[used] @ s[used])


def blahut_arimoto(channel: Channel, tol: float = 1e-10,
                   max_iter: int = 5_000_000) -> CapacityOutcome:
    """Classical alternating-maximization capacity solver.

    Updates q_x by exp(s_x(q)) (``_divergences``), and stops when the
    max-min gap max_x s_x(q) - I(q, W) drops below ``tol``; the returned
    capacity I(q, W) then underestimates the true capacity by at most that
    gap.
    """
    mat = channel.matrix
    n1 = channel.n_inputs
    neg_entropies = _column_neg_entropies(mat)

    q = np.full(n1, 1.0 / n1)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        s = _divergences(mat, neg_entropies, q)
        lower = float(q @ s)
        gap = float(np.max(s) - lower)
        if gap < tol:
            break
        q = q * np.exp(s - np.max(s))
        q = q / q.sum()
    capacity = float(q @ _divergences(mat, neg_entropies, q))
    return CapacityOutcome(capacity, q, (), "ba", iterations=iterations,
                           residual=gap, converged=gap < tol)


def split(matrix: Array) -> Split:
    """Product split of the geometry of the channel with columns ``matrix``.

    The features of F_b are the orthonormal complement of the last column,
    so they are independent and span no constant (a constant c has inner
    product c with the last column), and need no ``classical_system`` check.
    """
    f = kernel_basis(matrix[:, -1][None, :])  # (n2, n2 - 1)
    entropies = -_column_neg_entropies(matrix)
    return Split(ClassicalSystem(f), matrix[:, :-1].T @ f,
                 entropies[-1] - entropies[:-1], entropies[-1])


def markov_geometry(tensor: Array) -> CapacityGeometry:
    """The reverse-em geometry of the channel X -> Z x Y with
    ``tensor[x, z, y]`` = W(z, y | x).

    Its exponential family is the Markov chains P(x, z) P(y | z), and its
    mixture family is {W x q}.  The features are, in this order, the
    indicators of inputs 1..k; every input's eavesdropper indicators
    z < |Z| - 1, centred at W(z | x); and each z's receiver features, those
    of ``split`` of the z-conditional channel, centred at the input's
    moments.  A plain channel is the case |Z| = 1, the only one whose
    exponential potential splits (DECISIONS.md).  The geometry uses the
    channel regularized by GEOMETRY_REGULARIZATION; capacity reports use
    the raw channel.
    """
    n1, n2, n3 = tensor.shape
    if n1 < 2 or n3 < 2:
        raise InvalidChannelError("geometry needs at least two inputs and two receiver outputs")
    reg = (1.0 - GEOMETRY_REGULARIZATION) * tensor + GEOMETRY_REGULARIZATION / (n2 * n3)
    w_z = reg.sum(axis=2)  # (n1, n2)
    splits = [split((reg[:, z] / w_z[:, z, None]).T) for z in range(n2)]
    f = np.stack([sp.sys_b.features for sp in splits])  # [z, y, j]
    moments = np.stack([sp.moments for sp in splits], axis=1)  # [x < k, z, j]
    centred = f[None] - np.concatenate([moments, np.zeros((1, n2, n3 - 1))])[:, :, None]

    k = n1 - 1
    eye_x, eye_z = np.eye(n1), np.eye(n2)
    inputs = np.einsum("xi,z,y->xzyi", eye_x[:, :k], np.ones(n2), np.ones(n3))
    eve = np.einsum("xi,xzw,y->xzyiw", eye_x, eye_z[:, :-1] - w_z[:, None, :-1], np.ones(n3))
    receiver = np.einsum("xi,zw,xzyj->xzyiwj", eye_x, eye_z, centred)
    receiver_gens = np.einsum("x,zw,zyj->xzywj", np.ones(n1), eye_z, f)
    n = n1 * n2 * n3
    feats = np.concatenate([b.reshape(n, -1) for b in (inputs, eve, receiver)], axis=1)
    gens = np.concatenate([b.reshape(n, -1) for b in (inputs, eve, receiver_gens)], axis=1)
    return build_geometry(classical_system(feats), feats, gens, k,
                          feats.T @ (reg / n1).reshape(-1), splits[0] if n2 == 1 else None)


def build_problem(channel: Channel) -> CapacityGeometry:
    """The geometry of a plain channel: a channel whose eavesdropper sees
    one letter (``markov_geometry`` with |Z| = 1)."""
    return markov_geometry(channel.matrix.T[:, None, :])


def iterative_outcome(geo: CapacityGeometry, objective: Callable[[Array], float],
                      tol: float) -> CapacityOutcome:
    """Natural-step reverse-em solve from the uniform input, at
    ``solve_reverse_em``'s default iteration cap, reported as the raw
    channel's ``objective`` at the decoded input distribution."""
    trace = solve_reverse_em(geo.rem, geo.theta_a_uniform, stepper="natural",
                             tol=tol)
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


def capacity_iterative(channel: Channel, tol: float = 1e-10) -> CapacityOutcome:
    """Reverse-em capacity from the uniform input coordinate (natural step)."""
    return iterative_outcome(build_problem(channel),
                             lambda q: mutual_information(channel.matrix, q), tol)


def capacity_em(channel: Channel) -> CapacityOutcome:
    """em-conversion capacity; NaN and ``converged=False`` on a boundary optimum."""
    return em_outcome(build_problem(channel),
                      lambda q: mutual_information(channel.matrix, q))


def restrict_inputs(n_inputs: int, input_subset: Optional[Sequence[int]]
                    ) -> Tuple[Tuple[int, ...], Optional[CapacityOutcome]]:
    """The checked input subset of a special-case solve (all inputs when
    None) and, for a single input, its point-mass outcome of capacity 0."""
    subset = tuple(range(n_inputs) if input_subset is None else map(int, input_subset))
    if (not subset or len(set(subset)) != len(subset)
            or any(x < 0 or x >= n_inputs for x in subset)):
        raise InvalidChannelError("input subset must be nonempty distinct valid indices")
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

    Input columns within DUPLICATE_TOL of an earlier kept column (max-abs
    difference) are merged into it: the reported distribution puts their
    mass on the first occurrence.  Inputs beyond that are never dropped.
    Requires n1 <= n2 after merging.
    """
    mat = channel.matrix
    n1 = channel.n_inputs
    close = np.abs(mat[:, :, None] - mat[:, None, :]).max(axis=0) <= DUPLICATE_TOL
    keep = []
    for x, row in enumerate(close.tolist()):
        if not any(row[y] for y in keep):
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
