"""Classical-quantum channel capacity: Holevo quantity, the geometry over
block-diagonal classical-quantum states, the capacity problem (``problem``)
that ``classical.capacity`` solves by every route, and the non-iterative
method with its boundary-subset recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bregman import QuantumSystem, quantum_system
from .classical import (GEOMETRY_REGULARIZATION, CapacityOutcome, CapacityProblem,
                        capacity, oracle_outcome, subset_outcome, subset_recursion)
from .errors import DomainError, InvalidChannelError
from .numerics import maximize_on_unit_interval
from .reverse_em import CapacityGeometry, Split, build_geometry

Array = np.ndarray

# Relative floor below which eigenvalues are treated as zero rank; density
# matrices may be numerically rank-deficient.
EIGEN_FLOOR = 1e-14

# holevo_oracle's grid has HOLEVO_GRID_POINTS + 1 equally spaced points.
HOLEVO_GRID_POINTS = 2000


@dataclass(eq=False)
class CQChannel:
    """Classical-quantum channel: one density matrix per classical input."""

    states: Array  # (n_inputs, dim, dim) complex

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        if (self.states.ndim != 3 or self.states.shape[1] != self.states.shape[2]
                or self.states.size == 0):
            raise InvalidChannelError("states must be a nonempty stack of square matrices")
        if not np.all(np.isfinite(self.states)):
            raise InvalidChannelError("states have non-finite entries")
        for idx, rho in enumerate(self.states):
            if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
                raise InvalidChannelError(f"state {idx + 1} is not Hermitian")
            tr = complex(np.trace(rho))
            if abs(tr - 1.0) > 1e-10:
                raise InvalidChannelError(
                    f"state {idx + 1} has trace {tr.real:.12g}, expected 1")
            if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -1e-12:
                raise InvalidChannelError(f"state {idx + 1} is not positive semidefinite")

    @property
    def n_inputs(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _state_entropies(states: Array) -> Array:
    """S(rho) = -Tr rho log rho in nats of every matrix of the stack, from
    one stacked eigvalsh, ignoring eigenvalues at or below EIGEN_FLOOR
    times the largest."""
    evals = np.linalg.eigvalsh(states)
    keep = evals > EIGEN_FLOOR * np.maximum(evals[..., -1:], 0.0)
    return -np.sum(np.where(keep, evals * np.log(np.where(keep, evals, 1.0)), 0.0),
                   axis=-1)


def _divergences(states: Array, entropies: Array, p: Array) -> Array:
    """s_j(p) = D(rho_j || sigma) in nats of every input j, sigma = sum p rho,
    given ``_state_entropies(states)``, from one eigh of sigma.  Each
    state's weight outside sigma's numerical support (eigenvalues above
    EIGEN_FLOOR times the largest) is dropped: for p_j > 0 it exists only
    through rounding and the floor.  p @ s(p) is the Holevo quantity."""
    evals, evecs = np.linalg.eigh(np.einsum("j,jab->ab", p, states))
    keep = evals > EIGEN_FLOOR * max(float(evals[-1]), 0.0)
    weights = np.einsum("ap,jab,bp->jp", evecs.conj(), states, evecs).real
    return -entropies - weights[:, keep] @ np.log(evals[keep])


def holevo(p: Array, channel: CQChannel) -> float:
    """Holevo quantity sum_j p_j D(rho_j || sum p rho) in nats, over the
    inputs with p_j > 0 (``_divergences``)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (channel.n_inputs,) or np.any(p < -1e-12) or abs(p.sum() - 1) > 1e-9:
        raise DomainError("p must be a probability vector over the inputs")
    s = _divergences(channel.states, _state_entropies(channel.states), p)
    used = p > 0
    return float(p[used] @ s[used])


def gell_mann_basis(dim: int) -> Array:
    """Generalized Gell-Mann matrices: a traceless Hermitian basis of su(dim)."""
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            mats.append(anti)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
    return np.asarray(mats)


def _observable_basis(reference: Array) -> Array:
    """Hermitian basis with Tr X_j reference = 0 and no identity component."""
    dim = reference.shape[0]
    basis = gell_mann_basis(dim)
    shifts = np.einsum("jab,ba->j", basis, reference).real
    eye = np.eye(dim)
    return np.asarray([g - s * eye for g, s in zip(basis, shifts)])


def split(states: Array) -> Split:
    """Product split of the geometry of the cq channel with these states;
    the observables of F_b are ``_observable_basis`` of the last state.
    States of dimension one have no observable and raise
    InvalidChannelError; so does ``build_problem``, through this split.

    F_b needs none of ``quantum_system``'s checks.  The observables are the
    Gell-Mann basis, which is independent and traceless, shifted by
    multiples of I, so they stay independent; and Tr(rho_last X_j) = 0 for
    every j while Tr(rho_last I) = 1, so I is not in their span."""
    if states.shape[1] < 2:
        raise InvalidChannelError("split needs states of dimension at least two")
    obs = _observable_basis(states[-1])
    entropies = _state_entropies(states)
    return Split(QuantumSystem(obs), np.einsum("jab,iba->ij", obs, states[:-1]).real,
                 entropies[-1] - entropies[:-1], entropies[-1])


def _regularize(states: Array, weight: float) -> Array:
    dim = states.shape[1]
    return (1.0 - weight) * states + weight * np.eye(dim)[None, :, :] / dim


def build_problem(channel: CQChannel) -> CapacityGeometry:
    """Geometry on the joint classical-quantum system C x H_A.

    The layout is ``classical.markov_geometry``'s at |Z| = 1, with operators
    in place of functions.  The features are the indicators of inputs
    1..k, then every input's observables (those of ``split``) centred at
    the input's moments, zero for the last input; the generators are the
    indicators and the shared observables.  Each operator is block diagonal
    over the inputs.  The exponential family is the product states; the
    mixture family decodes to the classical-quantum states of the channel.
    Rank-deficient inputs are regularized toward the maximally mixed state,
    at weight GEOMETRY_REGULARIZATION, for the geometry only.
    """
    n1, n2 = channel.n_inputs, channel.dim
    if n1 < 2:
        raise InvalidChannelError("need at least two inputs")
    reg = _regularize(channel.states, GEOMETRY_REGULARIZATION)
    sp = split(reg)
    obs = sp.sys_b.observables  # [j, a, b]
    k, n_obs = n1 - 1, obs.shape[0]
    eye_x, eye_a = np.eye(n1), np.eye(n2, dtype=complex)
    moments = np.concatenate([sp.moments, np.zeros((1, n_obs))])  # [x, j]
    centred = obs[None] - moments[:, :, None, None] * eye_a  # [x, j, a, b]
    # Per-input blocks [op, x, a, b]: the features, the shared generators
    # and the uniform-input state, put on the block diagonal together.
    blocks = np.concatenate([
        np.einsum("ix,ab->ixab", eye_x[:k], eye_a),
        np.einsum("ix,ijab->ijxab", eye_x, centred).reshape(-1, n1, n2, n2),
        np.broadcast_to(obs[:, None], (n_obs, n1, n2, n2)),
        reg[None] / n1])
    ops = np.einsum("xy,mxab->mxayb", eye_x, blocks).reshape(len(blocks), n1 * n2, n1 * n2)
    # The generators are fitted in the feature basis on the real vectors of
    # the operators (stacked real and imaginary parts).
    vecs = np.concatenate([ops.real, ops.imag], axis=1).reshape(len(ops), -1).T
    n_feat = k + n1 * n_obs
    gens = np.r_[:k, n_feat:n_feat + n_obs]
    return build_geometry(quantum_system(ops[:n_feat]), vecs[:, :n_feat], vecs[:, gens],
                          k, np.einsum("mab,ba->m", ops[:n_feat], ops[-1]).real, sp)


def problem(channel: CQChannel) -> CapacityProblem:
    """The Holevo-capacity problem; its oracle is ``holevo_oracle``."""
    return CapacityProblem(
        "cq", lambda p: holevo(p, channel), lambda: build_problem(channel),
        lambda: capacity_cq_noniterative(channel),
        lambda tol: oracle_outcome(holevo_oracle(channel), channel.n_inputs))


def capacity_cq_iterative(channel: CQChannel, tol: float = 1e-10) -> CapacityOutcome:
    """Reverse-em capacity (maximal Holevo quantity) from uniform input."""
    return capacity(problem(channel), "iterative", tol)


def cq_capacity_special(channel: CQChannel,
                        input_subset: Optional[Sequence[int]] = None) -> CapacityOutcome:
    """Non-iterative candidate value on a restricted input set: the split
    maximizer of the sub-channel, as in ``classical.capacity_special``.
    Negative weights flag a boundary optimum; linearly dependent restricted
    states raise DegenerateChannelError."""
    return subset_outcome(channel.n_inputs, input_subset,
                          lambda sub: split(channel.states[sub]))


def capacity_cq_noniterative(channel: CQChannel) -> CapacityOutcome:
    """Non-iterative cq capacity with the boundary-subset recursion."""
    return subset_recursion(
        channel.n_inputs, lambda sub: cq_capacity_special(channel, sub))


def holevo_batch(p: Array, channel: CQChannel) -> Array:
    """Holevo quantity at each row of ``p``, as S(sum_j p_j rho_j) -
    sum_j p_j S(rho_j) with one stacked eigvalsh of the mixtures: the
    entropy form, independent of ``holevo``'s divergence vector."""
    mixes = np.einsum("gj,jab->gab", p, channel.states)
    return _state_entropies(mixes) - p @ _state_entropies(channel.states)


def holevo_oracle(channel: CQChannel) -> float:
    """Grid-plus-refinement maximization of the Holevo quantity (n1 = 2),
    on the grid of HOLEVO_GRID_POINTS + 1 points."""
    if channel.n_inputs != 2:
        raise InvalidChannelError("the 1-d oracle needs exactly two inputs")
    grid = np.linspace(0.0, 1.0, HOLEVO_GRID_POINTS + 1)
    return maximize_on_unit_interval(
        lambda s: holevo(np.array([s, 1 - s]), channel),
        holevo_batch(np.stack([grid, 1 - grid], axis=1), channel))
