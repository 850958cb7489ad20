"""Degraded wiretap channels: secrecy-capacity geometry over X x Z x Y,
the iterative natural-parameter solver, and a grid oracle.

The geometry's exponential family is the Markov-chain distributions
P(y|z) P(x,z); the mixture family is {W x q}.  For channels satisfying the
X - Y - Z degradedness the maximized objective equals I(X;Y) - I(X;Z).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.optimize

from .bregman import classical_system
from .classical import (GEOMETRY_REGULARIZATION, CapacityOutcome,
                        _difference_duals, entropy, iterative_outcome,
                        mutual_information)
from .errors import InvalidChannelError, NotDegradedError
from .numerics import maximize_on_unit_interval
from .reverse_em import CapacityGeometry, build_geometry

Array = np.ndarray


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
        if self.tensor.ndim != 3:
            raise InvalidChannelError("wiretap tensor must have shape (n1, n2, n3)")
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


def check_degraded(channel: WiretapChannel, tol: float = 1e-8) -> Tuple[bool, float]:
    """Least-squares feasibility of a stochastic map T with W_Z = T W_Y.

    Returns (feasible, residual); feasible iff the residual of the
    nonnegative least-squares fit is below ``tol``.
    """
    w_y = channel.bob_marginal()  # (n3, n1)
    w_z = channel.eve_marginal()  # (n2, n1)
    n2, n3 = channel.n_eve, channel.n_bob
    n1 = channel.n_inputs
    # Unknown T[z, y] = P(z | y), stacked row-major; equations: the marginal
    # match (n1 * n2 rows) plus the column sums of T (n3 rows).
    rows = []
    rhs = []
    for z in range(n2):
        for x in range(n1):
            coeff = np.zeros((n2, n3))
            coeff[z, :] = w_y[:, x]
            rows.append(coeff.reshape(-1))
            rhs.append(w_z[z, x])
    for y in range(n3):
        coeff = np.zeros((n2, n3))
        coeff[:, y] = 1.0
        rows.append(coeff.reshape(-1))
        rhs.append(1.0)
    mat = np.asarray(rows)
    vec = np.asarray(rhs)
    fit = scipy.optimize.lsq_linear(mat, vec, bounds=(0.0, np.inf))
    residual = float(np.linalg.norm(mat @ fit.x - vec))
    return residual <= tol, residual


def secrecy_objective(channel: WiretapChannel, q: Array) -> float:
    """I(X;Y) - I(X;Z) at the input distribution q (raw marginals)."""
    return (mutual_information(channel.bob_marginal(), q)
            - mutual_information(channel.eve_marginal(), q))


def conditional_objective(channel: WiretapChannel, q: Array) -> float:
    """I(X;Y|Z) at q: the quantity the geometry maximizes for any channel."""
    q = np.asarray(q, dtype=float)
    joint = channel.tensor * q[:, None, None]  # (x, z, y)
    total = 0.0
    for z in range(channel.n_eve):
        pz = joint[:, z, :].sum()
        if pz <= 0:
            continue
        cond = joint[:, z, :] / pz  # distribution of (x, y) given z
        qx = cond.sum(axis=1)
        total += pz * (entropy(cond.sum(axis=0)) - sum(
            qx[x] * entropy(cond[x] / qx[x]) for x in range(channel.n_inputs)
            if qx[x] > 0))
    return float(total)


def build_problem(channel: WiretapChannel) -> CapacityGeometry:
    """Construct the X-Z-Y geometry; the mixture family decodes to {W x q}.

    The geometry uses the channel regularized by GEOMETRY_REGULARIZATION.
    """
    n1, n2, n3 = channel.tensor.shape
    if n1 < 2 or n3 < 2:
        raise InvalidChannelError("need at least two inputs and two receiver outputs")
    cell = n2 * n3
    reg = (1.0 - GEOMETRY_REGULARIZATION) * channel.tensor + GEOMETRY_REGULARIZATION / cell

    w_z = reg.sum(axis=2)  # (n1, n2)
    cond = reg / w_z[:, :, None]  # P(y | x, z)

    duals = [_difference_duals(cond[-1, z]) for z in range(n2)]  # each (n3, n3-1)
    h_cond = np.array([[duals[z].T @ cond[i, z] for z in range(n2)]
                       for i in range(n1)])   # (n1, n2, n3-1)
    h_joint = np.array([[duals[z].T @ reg[i, z] for z in range(n2)]
                        for i in range(n1)])  # (n1, n2, n3-1)

    k = n1 - 1
    d = n1 * n2 * n3 - 1
    l = n2 * (n1 + n3 - 1) - 1
    n = n1 * n2 * n3

    def unit(x=None, z=None):
        """Indicator array over the ground set for fixed coordinates."""
        arr = np.ones((n1, n2, n3))
        if x is not None:
            mask = np.zeros(n1)
            mask[x] = 1.0
            arr = arr * mask[:, None, None]
        if z is not None:
            mask = np.zeros(n2)
            mask[z] = 1.0
            arr = arr * mask[None, :, None]
        return arr

    feats = []
    gens = []
    # Input indicators (shared leading block).
    for i in range(k):
        col = unit(x=i).reshape(-1)
        feats.append(col)
        gens.append(col)
    # Centered eavesdropper indicators, every input including the reference.
    for i in range(n1):
        base = unit(x=i)
        for zp in range(n2 - 1):
            col = (unit(x=i, z=zp) - w_z[i, zp] * base).reshape(-1)
            feats.append(col)
            gens.append(col)
    # Receiver dual functions.
    for i in range(n1):
        for zp in range(n2):
            block = np.zeros((n1, n2, n3))
            for j in range(n3 - 1):
                block[:] = 0.0
                if i < n1 - 1:
                    block[i, zp, :] = duals[zp][:, j] - h_cond[i, zp, j]
                else:
                    block[i, zp, :] = duals[zp][:, j]
                feats.append(block.reshape(-1).copy())
    for zp in range(n2):
        for j in range(n3 - 1):
            block = np.zeros((n1, n2, n3))
            block[:, zp, :] = duals[zp][:, j]
            gens.append(block.reshape(-1).copy())

    feats = np.asarray(feats).T  # (n, d)
    gens = np.asarray(gens).T    # (n, l)
    if feats.shape != (n, d) or gens.shape != (n, l):
        raise InvalidChannelError("internal: feature/generator block counts")

    joint_uniform = (reg / n1).reshape(-1)
    return build_geometry(classical_system(feats), feats, gens, k,
                          feats.T @ joint_uniform, None)


def secrecy_capacity(channel: WiretapChannel, tol: float = 1e-10,
                     max_iter: int = 10000) -> CapacityOutcome:
    """Secrecy capacity max_q I(X;Y) - I(X;Z) of a degraded wiretap channel.

    Verifies degradedness first (the secrecy formula presumes X - Y - Z),
    then runs the natural-parameter reverse-em solver from uniform input.
    """
    feasible, residual = check_degraded(channel)
    if not feasible:
        raise NotDegradedError(
            f"channel fails the X-Y-Z degradedness check (residual {residual:.3e})")
    return iterative_outcome(build_problem(channel),
                             lambda q: secrecy_objective(channel, q), tol, max_iter)


def secrecy_oracle(channel: WiretapChannel, grid_points: int = 200) -> float:
    """Grid maximization of I(X;Y) - I(X;Z) with local refinement (n1 <= 3)."""
    n1 = channel.n_inputs
    if n1 > 3:
        raise InvalidChannelError("oracle supports at most three inputs")
    if n1 == 1:
        return 0.0

    def value(q):
        return secrecy_objective(channel, q)

    if n1 == 2:
        return maximize_on_unit_interval(
            lambda s: value(np.array([s, 1 - s])), grid_points)

    best = (-np.inf, None)
    m = max(grid_points // 4, 40)
    for a in range(m + 1):
        for b in range(m + 1 - a):
            q = np.array([a, b, m - a - b]) / m
            v = value(q)
            if v > best[0]:
                best = (v, q)
    q0 = np.maximum(best[1], 1e-6)
    x0 = np.log(q0 / q0[-1])[:2]

    def neg(x):
        w = np.exp(np.concatenate([x, [0.0]]))
        return -value(w / w.sum())

    res = scipy.optimize.minimize(neg, x0, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-12,
                                           "maxiter": 4000})
    return float(max(best[0], -res.fun))
