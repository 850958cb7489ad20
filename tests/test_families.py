import numpy as np
import pytest

from conftest import random_features
from revem.bregman import classical_system, divergence, quantum_system
from revem.errors import InvalidSpecError
from revem.families import (ExponentialSubfamily, MixtureSubfamily,
                            e_projection, m_projection, pythagorean_residual)


def product_2x2_system():
    """Joint distributions on a 2x2 ground set (d = 3) with the product
    subfamily generated by the two marginal indicator functions."""
    # ground set order (x, y): (0,0), (0,1), (1,0), (1,1);
    # columns: delta_{x=0}, delta_{y=0}, delta_{x=0} delta_{y=0}
    feats = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    sys = classical_system(feats)
    family = ExponentialSubfamily(np.array([[1.0, 0.0],
                                            [0.0, 1.0],
                                            [0.0, 0.0]]), np.zeros(3))
    return sys, family


def test_restricted_potential_cases(rng):
    sys = classical_system(random_features(rng, 5, 3))
    theta0 = rng.normal(size=3)
    fam_full = ExponentialSubfamily(np.eye(3), np.zeros(3))
    theta = rng.normal(size=3)
    assert abs(sys.potential(fam_full.ambient(theta)) - sys.potential(theta)) < 1e-12
    fam = ExponentialSubfamily(rng.normal(size=(3, 2)), theta0)
    assert abs(sys.potential(fam.ambient(np.zeros(2))) - sys.potential(theta0)) < 1e-12
    sub = sys.restrict(fam.generators, fam.offset)
    coords = rng.normal(size=2)
    assert abs(sub.potential(coords) - sys.potential(fam.ambient(coords))) < 1e-12
    # finite-difference gradient of the restricted potential
    grad = sub.gradient(coords)
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1e-6
        fd = (sub.potential(coords + e) - sub.potential(coords - e)) / 2e-6
        assert abs(fd - grad[j]) < 1e-6


def test_m_projection_idempotent_and_characterized(rng):
    sys = classical_system(random_features(rng, 6, 4))
    fam = ExponentialSubfamily(rng.normal(size=(4, 2)), 0.3 * rng.normal(size=4))
    member = fam.ambient(rng.normal(size=2))
    coords, amb = m_projection(sys, fam, member)
    assert np.max(np.abs(amb - member)) < 1e-8
    for _ in range(5):
        theta = rng.normal(size=4)
        coords, amb = m_projection(sys, fam, theta)
        defect = fam.generators.T @ (sys.gradient(amb) - sys.gradient(theta))
        assert np.max(np.abs(defect)) < 1e-9


def test_m_projection_of_joint_is_product_of_marginals(rng):
    sys, family = product_2x2_system()
    for _ in range(10):
        theta = rng.normal(size=3)
        joint = sys.distribution(theta).reshape(2, 2)
        _, amb = m_projection(sys, family, theta)
        proj = sys.distribution(amb).reshape(2, 2)
        expect = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        assert np.max(np.abs(proj - expect)) < 1e-9


def test_m_projection_optimality(rng):
    sys = classical_system(random_features(rng, 5, 3))
    fam = ExponentialSubfamily(rng.normal(size=(3, 2)), np.zeros(3))
    theta = rng.normal(size=3)
    _, amb = m_projection(sys, fam, theta)
    best = divergence(sys, theta, amb)
    for _ in range(100):
        other = fam.ambient(rng.normal(size=2))
        assert best <= divergence(sys, theta, other) + 1e-9


def test_e_projection_idempotent_constraint_and_optimality(rng):
    sys = classical_system(random_features(rng, 6, 4))
    basis = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    k = 2
    anchor = rng.normal(size=4)
    targets = basis[:, k:].T @ sys.gradient(anchor)  # nonempty by construction
    fam = MixtureSubfamily(basis, k, targets)
    proj = e_projection(sys, fam, anchor)
    assert np.max(np.abs(proj - anchor)) < 1e-8

    theta = rng.normal(size=4)
    proj = e_projection(sys, fam, theta)
    assert np.max(np.abs(basis[:, k:].T @ sys.gradient(proj) - targets)) < 1e-9
    best = divergence(sys, proj, theta)
    for _ in range(200):
        member = e_projection(sys, fam, rng.normal(size=4))
        assert best <= divergence(sys, member, theta) + 1e-9


def test_e_projection_without_constraints_is_the_identity(rng):
    # free_count == d leaves no constraint direction: the generic path
    # solves on a 0-dimensional restriction and returns theta itself.
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for sys in (classical_system(random_features(rng, 5, 3)), quantum_system(pauli)):
        fam = MixtureSubfamily(np.eye(3) + 0.3 * rng.normal(size=(3, 3)), 3, np.zeros(0))
        theta = rng.normal(size=3)
        proj = e_projection(sys, fam, theta)
        assert proj is not theta and np.array_equal(proj, theta)


def test_e_projection_bernoulli_symmetry():
    sys = classical_system(np.array([[0.0], [1.0]]))
    fam = MixtureSubfamily(np.eye(1), 0, np.array([0.5]))
    for start in (-2.0, 0.7, 4.0):
        proj = e_projection(sys, fam, np.array([start]))
        assert abs(proj[0]) < 1e-9


def test_pythagorean_identity(rng):
    sys = classical_system(random_features(rng, 6, 4))
    gens = rng.normal(size=(4, 2))
    theta0 = 0.3 * rng.normal(size=4)
    fam_e = ExponentialSubfamily(gens, theta0)
    star = fam_e.ambient(rng.normal(size=2))
    # mixture family through star, constrained along the generator directions
    complement = np.linalg.qr(np.hstack([gens, rng.normal(size=(4, 4))]))[0][:, 2:4]
    basis = np.hstack([complement, gens])
    targets = gens.T @ sys.gradient(star)
    fam_m = MixtureSubfamily(basis, 2, targets)

    assert pythagorean_residual(sys, star, star, star) < 1e-12
    for _ in range(20):
        theta_m = e_projection(sys, fam_m, rng.normal(size=4))
        theta_e = fam_e.ambient(rng.normal(size=2))
        assert pythagorean_residual(sys, theta_m, star, theta_e) < 1e-9
        assert pythagorean_residual(sys, theta_m, star, star) < 1e-12
        assert pythagorean_residual(sys, star, star, theta_e) < 1e-12


def test_family_validation():
    with pytest.raises(InvalidSpecError):
        ExponentialSubfamily(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    with pytest.raises(InvalidSpecError):
        MixtureSubfamily(np.zeros((3, 3)), 1, np.zeros(2))
    fam = MixtureSubfamily(np.eye(3), 1, np.zeros(2))
    assert np.isfinite(fam.condition_number)
