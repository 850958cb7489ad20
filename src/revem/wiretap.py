"""Degraded wiretap channels: the channel, the degradedness check, the
secrecy objective, the iterative natural-parameter solver, and a grid
oracle.

The degradedness check fits a stochastic map T with W_Z = T W_Y by exact
nonnegative least squares (``numerics.nonneg_least_squares``, Lawson-Hanson
active set), so a T with zero entries is reached, not approached.  The
oracle maximizes on a grid with golden-section refinement: once on [0, 1]
for two inputs, nested (an outer search over q_1 of the inner maximum over
its slice) for three, where it is exact for degraded channels and a
grid lower bound otherwise.

The geometry over X x Z x Y is ``classical.markov_geometry``: its
exponential family is the Markov-chain distributions P(y|z) P(x,z), its
mixture family is {W x q}.  For channels satisfying the X - Y - Z
degradedness the maximized objective equals I(X;Y) - I(X;Z).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .classical import (CapacityOutcome, iterative_outcome, markov_geometry,
                        mutual_information)
from .errors import InvalidChannelError, NotDegradedError
from .numerics import maximize_on_unit_interval, nonneg_least_squares
from .reverse_em import CapacityGeometry

Array = np.ndarray

# Largest residual of check_degraded's fit that still counts as degraded.
DEGRADED_TOL = 1e-8


@dataclass(eq=False)
class WiretapChannel:
    """Channel X -> Z x Y; ``tensor[x, z, y]`` = W(z, y | x).

    Z is the eavesdropper's alphabet and Y the legitimate receiver's.  Any
    such channel is accepted; ``secrecy_capacity`` verifies the Markov chain
    X - Y - Z with ``check_degraded`` before it trusts the secrecy formula.
    """

    tensor: Array

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=float)
        if self.tensor.ndim != 3 or self.tensor.size == 0:
            raise InvalidChannelError(
                "wiretap tensor must have shape (n1, n2, n3) with no empty axis")
        if not np.all(np.isfinite(self.tensor)):
            raise InvalidChannelError("wiretap tensor has non-finite entries")
        if np.any(self.tensor < -1e-12):
            raise InvalidChannelError("wiretap tensor has negative entries")
        sums = self.tensor.sum(axis=(1, 2))
        if np.any(np.abs(sums - 1.0) > 1e-9):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidChannelError(
                f"input {worst + 1} normalizes to {sums[worst]:.12g}, expected 1")

    @property
    def n_inputs(self) -> int:
        return self.tensor.shape[0]

    @property
    def n_eve(self) -> int:
        return self.tensor.shape[1]

    @property
    def n_bob(self) -> int:
        return self.tensor.shape[2]

    def bob_marginal(self) -> Array:
        """W_Y as an (n3, n1) column-stochastic matrix."""
        return self.tensor.sum(axis=1).T

    def eve_marginal(self) -> Array:
        """W_Z as an (n2, n1) column-stochastic matrix."""
        return self.tensor.sum(axis=2).T


def check_degraded(channel: WiretapChannel) -> Tuple[bool, float]:
    """Least-squares feasibility of a stochastic map T with W_Z = T W_Y.

    Returns (feasible, residual); feasible iff the residual of the
    nonnegative least-squares fit is at most DEGRADED_TOL.
    """
    w_y = channel.bob_marginal()  # (n3, n1)
    w_z = channel.eve_marginal()  # (n2, n1)
    n2, n3 = channel.n_eve, channel.n_bob
    # Unknown T[z, y] = P(z | y), stacked row-major; equations: the marginal
    # match W_Z[z, x] (n2 * n1 rows) plus the column sums of T (n3 rows).
    mat = np.vstack([np.kron(np.eye(n2), w_y.T), np.kron(np.ones(n2), np.eye(n3))])
    vec = np.concatenate([w_z.reshape(-1), np.ones(n3)])
    residual = float(np.linalg.norm(mat @ nonneg_least_squares(mat, vec) - vec))
    return residual <= DEGRADED_TOL, residual


def secrecy_objective(channel: WiretapChannel, q: Array) -> float:
    """I(X;Y) - I(X;Z) at the input distribution q (raw marginals)."""
    return (mutual_information(channel.bob_marginal(), q)
            - mutual_information(channel.eve_marginal(), q))


def build_problem(channel: WiretapChannel) -> CapacityGeometry:
    """The X-Z-Y geometry (``classical.markov_geometry``); the mixture family
    decodes to {W x q}."""
    return markov_geometry(channel.tensor)


def secrecy_capacity(channel: WiretapChannel, tol: float = 1e-10) -> CapacityOutcome:
    """Secrecy capacity max_q I(X;Y) - I(X;Z) of a degraded wiretap channel.

    Verifies degradedness first (the secrecy formula presumes X - Y - Z),
    then runs the natural-parameter reverse-em solver from uniform input.
    """
    feasible, residual = check_degraded(channel)
    if not feasible:
        raise NotDegradedError(
            f"channel fails the X-Y-Z degradedness check (residual {residual:.3e})")
    return iterative_outcome(build_problem(channel),
                             lambda q: secrecy_objective(channel, q), tol)


def secrecy_oracle(channel: WiretapChannel, grid_points: int = 200) -> float:
    """Grid maximization of I(X;Y) - I(X;Z) with local refinement (n1 <= 3).

    Two inputs: ``maximize_on_unit_interval`` on grid_points + 1 points.
    Three inputs: the same refinement nested, on m + 1 points per level with
    m = max(grid_points // 4, 40), of g(a) = max of the objective over the
    slice q_1 = a; each level returns the larger of its refined value and
    its best grid value, so the result is never below the best point of the
    (m + 1)^2 grid.  The objective of a degraded channel is concave in q,
    and a partial maximum of a concave function over a convex set is
    concave, so g is concave and each level's refinement brackets its
    maximum.  For a channel that is not degraded the three-input value is
    only a grid-and-refinement lower bound on the maximum.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    n1 = channel.n_inputs
    if n1 > 3:
        raise InvalidChannelError("oracle supports at most three inputs")
    if n1 == 1:
        return 0.0

    def value(q):
        return secrecy_objective(channel, q)

    if n1 == 2:
        grid = np.linspace(0.0, 1.0, grid_points + 1)
        return maximize_on_unit_interval(
            lambda s: value(np.array([s, 1 - s])),
            [value(q) for q in np.stack([grid, 1 - grid], axis=1)])

    grid = np.linspace(0.0, 1.0, max(grid_points // 4, 40) + 1)

    def refined(f):
        values = [f(t) for t in grid]
        return max(max(values), maximize_on_unit_interval(f, values))

    def slice_max(a):
        """max of the objective over q = (a, (1 - a) s, (1 - a)(1 - s))."""
        return refined(lambda s: value(np.array([a, (1 - a) * s, (1 - a) * (1 - s)])))

    return refined(slice_max)
