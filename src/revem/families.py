"""Exponential and mixture subfamilies of a Bregman system and the two
divergence projections onto them.

An exponential subfamily is an affine slice of natural-parameter space; a
mixture subfamily is a set of linear constraints on mixture parameters.
Both projections reduce to inverting a gradient map, so they share the
Newton machinery of ``bregman.natural_param``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .bregman import BregmanSystem, divergence, natural_param
from .errors import ImageMembershipError, InvalidSpecError, ProjectionError

Array = np.ndarray


@dataclass(eq=False)
class ExponentialSubfamily:
    """Affine slice theta0 + span(generator columns) of natural-parameter space."""

    generators: Array  # (d, l), linearly independent columns
    offset: Array      # (d,)

    def __post_init__(self):
        self.generators = np.asarray(self.generators, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        d, l = self.generators.shape
        if self.offset.shape != (d,):
            raise InvalidSpecError("offset dimension does not match generators")
        if np.linalg.matrix_rank(self.generators, tol=1e-10) != l:
            raise InvalidSpecError("generator columns are linearly dependent")

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def ambient(self, coords: Array) -> Array:
        """Ambient natural parameter of the member with these coordinates."""
        return self.offset + self.generators @ np.asarray(coords, dtype=float)

    def coords(self, theta: Array) -> Array:
        """Subfamily coordinates of an ambient member (least-squares fit)."""
        rhs = np.asarray(theta, dtype=float) - self.offset
        sol, *_ = np.linalg.lstsq(self.generators, rhs, rcond=None)
        return sol


@dataclass(eq=False)
class MixtureSubfamily:
    """Members satisfy u_{k+j} . grad F(theta) = targets_j for j = 1..d-k."""

    basis: Array       # (d, d) invertible
    free_count: int
    targets: Array     # (d - free_count,)
    condition_number: float = field(init=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        d = self.basis.shape[0]
        if self.basis.shape != (d, d):
            raise InvalidSpecError("basis must be square")
        if self.targets.shape != (d - self.free_count,):
            raise InvalidSpecError("targets length must be d - free_count")
        self.condition_number = float(np.linalg.cond(self.basis))
        if not np.isfinite(self.condition_number):
            raise InvalidSpecError("basis is singular")


def m_projection(sys: BregmanSystem, family: ExponentialSubfamily, theta: Array,
                 grad_tol: float = 1e-10) -> Tuple[Array, Array]:
    """Divergence-minimizing member of the exponential subfamily from theta.

    Characterized by matching mixture parameters along the generators;
    returns (subfamily coordinates, ambient point).
    """
    theta = np.asarray(theta, dtype=float)
    target = family.generators.T @ sys.gradient(theta)
    sub = sys.restrict(family.generators, family.offset)
    try:
        coords = natural_param(sub, target, theta_init=family.coords(theta),
                               grad_tol=grad_tol)
    except ImageMembershipError as exc:
        raise ProjectionError(f"m-projection failed: {exc}") from exc
    return coords, family.ambient(coords)


def e_projection(sys: BregmanSystem, family: MixtureSubfamily, theta: Array,
                 grad_tol: float = 1e-10) -> Array:
    """Divergence-minimizing member of the mixture subfamily toward theta.

    The projection shifts theta along the constraint directions u_{k+1..d};
    the shift coefficients solve the constraint equations.
    """
    theta = np.asarray(theta, dtype=float)
    dirs = family.basis[:, family.free_count:]
    if dirs.shape[1] == 0:
        return theta.copy()
    sub = sys.restrict(dirs, theta)
    try:
        tau = natural_param(sub, family.targets, grad_tol=grad_tol)
    except ImageMembershipError as exc:
        raise ProjectionError(f"e-projection failed: {exc}") from exc
    return theta + dirs @ tau


def pythagorean_residual(sys: BregmanSystem, theta: Array, theta_star: Array,
                         theta_prime: Array) -> float:
    """|D(theta||theta') - D(theta||theta*) - D(theta*||theta')|.

    Zero (up to numerics) whenever theta lies in a mixture subfamily whose
    constraints run along the generators of an exponential subfamily
    containing theta', with theta* in their intersection: the mixture
    differences are then orthogonal to the natural-parameter differences.
    """
    total = divergence(sys, theta, theta_prime)
    via = divergence(sys, theta, theta_star) + divergence(sys, theta_star, theta_prime)
    return abs(total - via)
