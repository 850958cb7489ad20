"""Classical-quantum channel capacity: Holevo quantity, the geometry over
block-diagonal classical-quantum states, the iterative solver, and the
non-iterative method with its boundary-subset recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bregman import quantum_system
from .classical import (GEOMETRY_REGULARIZATION, CapacityOutcome,
                        iterative_outcome, restrict_inputs, special_outcome,
                        subset_recursion)
from .errors import DegenerateChannelError, DomainError, InvalidChannelError
from .numerics import maximize_on_unit_interval
from .reverse_em import (CapacityGeometry, build_geometry,
                         minimize_split_potential)

Array = np.ndarray

# Relative floor below which eigenvalues are treated as zero rank; density
# matrices may be numerically rank-deficient.
EIGEN_FLOOR = 1e-14


@dataclass(eq=False)
class CQChannel:
    """Classical-quantum channel: one density matrix per classical input."""

    states: Array  # (n_inputs, dim, dim) complex

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.ndim != 3 or self.states.shape[1] != self.states.shape[2]:
            raise InvalidChannelError("states must be a stack of square matrices")
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


def von_neumann_entropy(rho: Array) -> float:
    """-Tr rho log rho in nats, ignoring the numerically zero spectrum."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    floor = EIGEN_FLOOR * max(float(evals[-1]), 0.0)
    pos = evals[evals > max(floor, 0.0)]
    return float(-np.sum(pos * np.log(pos)))


def _tr_rho_log_sigma(rho: Array, sigma: Array) -> float:
    """Tr rho log sigma on sigma's support; rejects weight above 1e-10 outside it."""
    evals, evecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    floor = EIGEN_FLOOR * max(float(evals[-1]), 0.0)
    keep = evals > max(floor, 0.0)
    weights = np.einsum("ip,ij,jp->p", evecs.conj(), rho, evecs).real
    outside = float(np.sum(weights[~keep]))
    if outside > 1e-10:
        raise DomainError(
            f"state has weight {outside:.3e} outside the support of the reference")
    return float(np.sum(weights[keep] * np.log(evals[keep])))


def holevo(p: Array, channel: CQChannel) -> float:
    """Holevo quantity sum_j p_j D(W_j || sum p W) in nats."""
    p = np.asarray(p, dtype=float)
    if p.shape != (channel.n_inputs,) or np.any(p < -1e-12) or abs(p.sum() - 1) > 1e-9:
        raise DomainError("p must be a probability vector over the inputs")
    mix = np.einsum("j,jab->ab", p, channel.states)
    total = 0.0
    for j in range(channel.n_inputs):
        if p[j] > 0:
            rho = channel.states[j]
            total += p[j] * (-von_neumann_entropy(rho) - _tr_rho_log_sigma(rho, mix))
    return float(total)


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


def _regularize(states: Array, weight: float) -> Array:
    dim = states.shape[1]
    return (1.0 - weight) * states + weight * np.eye(dim)[None, :, :] / dim


def build_problem(channel: CQChannel) -> CapacityGeometry:
    """Geometry on the joint classical-quantum system C x H_A.

    The exponential family is the product states; the mixture family decodes
    to the classical-quantum states of the channel.  Rank-deficient inputs
    are regularized toward the maximally mixed state, at weight
    GEOMETRY_REGULARIZATION, for the geometry only.
    """
    n1, n2 = channel.n_inputs, channel.dim
    if n1 < 2:
        raise InvalidChannelError("need at least two inputs")
    reg = _regularize(channel.states, GEOMETRY_REGULARIZATION)

    obs = _observable_basis(reg[-1])  # (n2^2-1, n2, n2)
    n_obs = obs.shape[0]
    h = np.einsum("jab,iba->ij", obs, reg).real  # (n1, n2^2-1)

    k = n1 - 1
    d = n1 * n2 * n2 - 1
    l = n1 + n2 * n2 - 2
    dim_joint = n1 * n2

    def embed(i: int, mat: Array) -> Array:
        block = np.zeros((n1, n1), dtype=complex)
        block[i, i] = 1.0
        return np.kron(block, mat)

    eye = np.eye(n2, dtype=complex)
    xis = []
    for i in range(k):
        xis.append(embed(i, eye))
    for i in range(n1):
        for j in range(n_obs):
            if i < n1 - 1:
                xis.append(embed(i, obs[j] - h[i, j] * eye))
            else:
                xis.append(embed(i, obs[j]))
    xis = np.asarray(xis)
    if xis.shape[0] != d:
        raise InvalidChannelError("internal: observable block count")

    gens_ops = []
    for i in range(k):
        gens_ops.append(embed(i, eye))
    for j in range(n_obs):
        gens_ops.append(np.kron(np.eye(n1, dtype=complex), obs[j]))
    gens_ops = np.asarray(gens_ops)

    # The generators are fitted in the xi basis on the real vectors of the
    # operators (stacked real and imaginary parts).
    xi_vecs = np.concatenate([xis.real.reshape(d, -1),
                              xis.imag.reshape(d, -1)], axis=1).T
    g_vecs = np.concatenate([gens_ops.real.reshape(l, -1),
                             gens_ops.imag.reshape(l, -1)], axis=1).T

    rho_uniform = np.zeros((dim_joint, dim_joint), dtype=complex)
    for i in range(n1):
        rho_uniform += embed(i, reg[i]) / n1
    entropies = np.array([von_neumann_entropy(reg[i]) for i in range(n1)])
    return build_geometry(
        quantum_system(xis), xi_vecs, g_vecs, k,
        np.einsum("mab,ba->m", xis, rho_uniform).real,
        (quantum_system(obs), entropies))


def capacity_cq_iterative(channel: CQChannel, tol: float = 1e-10,
                          max_iter: int = 10000) -> CapacityOutcome:
    """Reverse-em capacity (maximal Holevo quantity) from uniform input."""
    return iterative_outcome(build_problem(channel), lambda p: holevo(p, channel),
                             tol, max_iter)


def cq_capacity_special(channel: CQChannel,
                        input_subset: Optional[Sequence[int]] = None) -> CapacityOutcome:
    """Non-iterative candidate value on a restricted input set.

    The quantum analogue of the classical special-case algorithm: one convex
    minimization over the kernel of the moment matrix, then a linear solve
    for the input weights whose negative entries flag a boundary optimum.
    """
    n1 = channel.n_inputs
    subset, single = restrict_inputs(n1, input_subset)
    if single is not None:
        return single

    states = channel.states[list(subset)]
    m = len(subset)
    obs = _observable_basis(states[-1])
    h = np.einsum("jab,iba->ij", obs, states).real  # (m, n2^2-1)
    h_mat = h[:-1]
    if np.linalg.matrix_rank(h_mat, tol=1e-10) < m - 1:
        raise DegenerateChannelError("restricted states are linearly dependent")

    theta_a_dag = np.array([-von_neumann_entropy(states[i])
                            + von_neumann_entropy(states[-1])
                            for i in range(m - 1)])
    sys_eb = quantum_system(obs)
    theta_b = minimize_split_potential(sys_eb, h_mat, theta_a_dag)
    sigma = sys_eb.state(theta_b)
    columns = np.concatenate([states.real.reshape(m, -1),
                              states.imag.reshape(m, -1)], axis=1).T
    target = np.concatenate([sigma.real.reshape(-1), sigma.imag.reshape(-1)])
    value = -von_neumann_entropy(states[-1]) + sys_eb.potential(theta_b)
    return special_outcome(subset, n1, columns, target, value)


def capacity_cq_noniterative(channel: CQChannel) -> CapacityOutcome:
    """Non-iterative cq capacity with the boundary-subset recursion."""
    return subset_recursion(
        channel.n_inputs, lambda sub: cq_capacity_special(channel, sub))


def holevo_oracle(channel: CQChannel, grid_points: int = 2000) -> float:
    """Grid-plus-refinement maximization of the Holevo quantity (n1 = 2)."""
    if channel.n_inputs != 2:
        raise InvalidChannelError("the 1-d oracle needs exactly two inputs")
    return maximize_on_unit_interval(
        lambda s: holevo(np.array([s, 1 - s]), channel), grid_points)
