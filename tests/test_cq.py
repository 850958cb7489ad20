import numpy as np
import pytest
from scipy.linalg import block_diag

from revem import reverse_em as rem
from revem.classical import (GEOMETRY_REGULARIZATION, Channel, capacity,
                             capacity_general, capacity_special)
from revem.cq import (CQChannel, _observable_basis, _regularize, _state_entropies,
                      build_problem, capacity_cq_iterative,
                      capacity_cq_noniterative, cq_capacity_special,
                      gell_mann_basis, holevo, holevo_batch, holevo_oracle,
                      problem, split)
from revem.errors import DegenerateChannelError, InvalidChannelError


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_qubit_pair(rng):
    states = np.array([random_density(rng, 2), random_density(rng, 2)])
    return CQChannel(_regularize(states, 1e-6))


def test_validation():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0] = [[0.5, 0.2], [0.1, 0.5]]
    with pytest.raises(InvalidChannelError):
        CQChannel(bad)
    with pytest.raises(InvalidChannelError):
        CQChannel(np.array([np.diag([0.7, 0.7])], dtype=complex))
    with pytest.raises(InvalidChannelError, match="non-finite"):
        CQChannel(np.array([np.diag([np.nan, 1.0])], dtype=complex))


def test_empty_and_one_dimensional_channels_are_rejected():
    with pytest.raises(InvalidChannelError, match="nonempty"):
        CQChannel(np.zeros((0, 2, 2), dtype=complex))
    # Two 1 x 1 states: a valid channel of capacity zero, but neither the
    # split nor the geometry has an observable to work with.
    ch = CQChannel(np.ones((2, 1, 1), dtype=complex))
    with pytest.raises(InvalidChannelError, match="dimension at least two"):
        split(ch.states)
    with pytest.raises(InvalidChannelError, match="dimension at least two"):
        build_problem(ch)
    with pytest.raises(InvalidChannelError):
        capacity_cq_noniterative(ch)
    with pytest.raises(InvalidChannelError):
        capacity_cq_iterative(ch)


def test_gell_mann_and_observable_basis(rng):
    # split builds F_b without quantum_system's checks; the observables keep
    # the two properties those checks asserted, independence and a span
    # without the identity, with room to spare over their 1e-10.  The last
    # state, whose observables they are, is random or rank one.
    for dim in (2, 3):
        basis = gell_mann_basis(dim)
        assert basis.shape == (dim * dim - 1, dim, dim)
        for g in basis:
            assert np.max(np.abs(g - g.conj().T)) < 1e-14
            assert abs(np.trace(g)) < 1e-14
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for ref in (random_density(rng, dim), np.outer(v, v.conj()) / (v.conj() @ v).real):
            states = CQChannel(np.array([random_density(rng, dim), ref])).states
            obs = split(states).sys_b.observables
            assert np.max(np.abs(obs - _observable_basis(ref))) == 0.0
            for x in obs:
                assert abs(np.trace(x @ ref)) < 1e-12
            stacked = np.concatenate([obs.real.reshape(len(obs), -1),
                                      obs.imag.reshape(len(obs), -1)], axis=1)
            eye = np.concatenate([np.eye(dim).reshape(-1), np.zeros(dim * dim)])
            assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-3
            assert np.linalg.svd(np.vstack([stacked, eye]), compute_uv=False)[-1] > 1e-3


def test_holevo_anchors(rng):
    rho = random_density(rng, 2)
    ch = CQChannel(np.array([rho, rho]))
    assert abs(holevo(np.array([0.4, 0.6]), ch)) < 1e-12

    states = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        states[i, i, i] = 1.0
    ch = CQChannel(states)
    assert abs(holevo(np.full(3, 1 / 3), ch) - np.log(3)) < 1e-12

    # diagonal states reproduce the classical mutual information
    probs = rng.dirichlet(np.ones(3), size=2)
    ch = CQChannel(np.array([np.diag(p).astype(complex) for p in probs]))
    from revem.classical import mutual_information
    p_in = np.array([0.3, 0.7])
    assert abs(holevo(p_in, ch)
               - mutual_information(probs.T, p_in)) < 1e-10


def test_build_problem_structure(rng):
    ch = random_qubit_pair(rng)
    prob = build_problem(ch)
    p = prob.rem
    k = p.k
    assert np.max(np.abs(p.dual_matrix[:, :k] - np.eye(k))) < 1e-10
    # exponential members at coordinates (theta_a, theta_b) are product states
    theta_c = 0.5 * rng.normal(size=p.l)
    rho = p.sys.state(p.family_E.ambient(theta_c))
    n1, n2 = ch.n_inputs, ch.dim
    blocks = rho.reshape(n1, n2, n1, n2)
    weights = np.array([np.trace(blocks[i, :, i, :]).real for i in range(n1)])
    shape0 = blocks[0, :, 0, :] / weights[0]
    for i in range(1, n1):
        assert np.max(np.abs(blocks[i, :, i, :] / weights[i] - shape0)) < 1e-10
    # mixture members decode to the channel's block states
    theta_a = 0.5 * rng.normal(size=k)
    rho = p.sys.state(p.m_ambient(theta_a))
    blocks = rho.reshape(n1, n2, n1, n2)
    q = prob.decode_input(theta_a)
    for i in range(n1):
        assert np.max(np.abs(blocks[i, :, i, :] - q[i] * ch.states[i])) < 1e-9


def reference_operators(states):
    """Features and generators of the cq geometry, one block-diagonal
    operator at a time."""
    n1, dim = states.shape[:2]
    reg = _regularize(states, GEOMETRY_REGULARIZATION)
    obs = split(reg).sys_b.observables
    eye = np.eye(dim)

    def at_input(i, block):
        return block_diag(*[block if x == i else 0 * eye for x in range(n1)])

    feats = [at_input(i, eye) for i in range(n1 - 1)]
    gens = list(feats)
    for i in range(n1):
        for o in obs:
            moment = np.trace(o @ reg[i]).real if i < n1 - 1 else 0.0
            feats.append(at_input(i, o - moment * eye))
    gens += [block_diag(*[o] * n1) for o in obs]
    return np.array(feats), np.array(gens)


def test_geometry_matches_block_by_block_reference(rng):
    # build_problem puts every operator on the block diagonal at once; the
    # loop above is the reference, for qubits and qutrits, two to four
    # inputs, and a rank-one state.
    pure = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure /= np.linalg.norm(pure)
    cases = [np.array([random_density(rng, dim) for _ in range(n1)])
             for n1, dim in ((2, 2), (2, 3), (3, 2), (4, 3))]
    cases.append(np.array([np.outer(pure, pure.conj()), random_density(rng, 3),
                           random_density(rng, 3)]))
    for states in cases:
        p = build_problem(CQChannel(states)).rem
        feats, gens = reference_operators(states)
        assert np.max(np.abs(p.sys.observables - feats)) <= 1e-12
        fitted = np.einsum("jm,jab->mab", p.family_E.generators, p.sys.observables)
        assert np.max(np.abs(fitted - gens)) <= 1e-12


def test_objective_identity_holevo(rng):
    ch = random_qubit_pair(rng)
    prob = build_problem(ch)
    p = prob.rem
    for _ in range(4):
        theta_a = 0.5 * rng.normal(size=p.k)
        obj, _ = rem._objective_and_residual(p, theta_a, {})
        q = prob.decode_input(theta_a)
        assert abs(obj - holevo(q, ch)) < 1e-8


def test_identical_states_zero_capacity(rng):
    rho = random_density(rng, 2)
    ch = CQChannel(_regularize(np.array([rho, rho]), 1e-6))
    out = capacity_cq_iterative(ch)
    assert abs(out.capacity) < 1e-9


def test_qubit_channels_match_oracle(rng):
    for _ in range(3):
        ch = random_qubit_pair(rng)
        oracle = holevo_oracle(ch)
        it = capacity_cq_iterative(ch)
        ni = capacity_cq_noniterative(ch)
        assert abs(it.capacity - oracle) < 1e-6
        if not ni.negative_support:
            assert abs(ni.capacity - oracle) < 1e-6


def test_commuting_reduces_to_classical(rng):
    probs = rng.dirichlet(np.ones(3), size=3)
    probs = (probs + 0.05) / 1.15
    ch = CQChannel(np.array([np.diag(p).astype(complex) for p in probs]))
    classical_out = capacity_general(Channel(probs.T))
    it = capacity_cq_iterative(ch)
    assert abs(it.capacity - classical_out.capacity) < 1e-8
    ni = capacity_cq_noniterative(ch)
    assert abs(ni.capacity - classical_out.capacity) < 1e-8
    # the special-case run agrees with the classical one including the
    # negative-support set
    cs = capacity_special(Channel(probs.T))
    qs = cq_capacity_special(ch)
    assert qs.negative_support == cs.negative_support
    assert abs(qs.capacity - cs.capacity) < 1e-10
    assert np.max(np.abs(qs.input_distribution - cs.input_distribution)) < 1e-8


def test_square_case_no_inner_minimization(rng):
    # n1 = dim^2 states: the moment matrix is square, kernel empty
    states = np.array([random_density(rng, 2) for _ in range(4)])
    states = _regularize(states, 1e-6)
    ch = CQChannel(states)
    prob = build_problem(ch)
    from revem.numerics import kernel_basis
    assert kernel_basis(prob.rem.dual_tail).shape[1] == 0
    ni = capacity_cq_noniterative(ch)
    it = capacity_cq_iterative(ch)
    assert abs(ni.capacity - it.capacity) < 1e-6

    # cross-check against a coarse simplex search
    best = 0.0
    for _ in range(3000):
        p = rng.dirichlet(np.ones(4))
        best = max(best, holevo(p, ch))
    assert ni.capacity >= best - 1e-4


def test_dependent_states_raise_degenerate(rng):
    # The mixture of two states is linearly dependent on them.
    states = np.array([random_density(rng, 2), random_density(rng, 2)])
    ch = CQChannel(np.vstack([states, states.mean(axis=0, keepdims=True)]))
    with pytest.raises(DegenerateChannelError):
        cq_capacity_special(ch)


def test_cq_capacity_special_rejects_bad_subsets(rng):
    ch = CQChannel(np.array([random_density(rng, 2) for _ in range(3)]))
    for subset in ([], [0, 0], [0, 3], [-1, 1], [0, 1.5]):
        with pytest.raises(InvalidChannelError, match="input subset"):
            cq_capacity_special(ch, subset)


def test_holevo_at_weight_below_the_eigen_floor():
    # Two orthogonal pure states at p = (1 - eps, eps): the mixture's
    # eigenvalue eps falls below EIGEN_FLOOR times the largest for
    # eps < 1e-14, and the second state's weight there is dropped; the
    # value stays the binary entropy h(eps), in the computational basis
    # and in a rotated complex one.
    unitary = np.linalg.qr(np.array([[1.0, 0.4 + 0.3j], [-0.2j, 0.9]]))[0]
    for basis in (np.eye(2), unitary):
        ch = CQChannel(np.array([np.outer(v, v.conj()) for v in basis.T]))
        for eps in (1e-13, 1e-15, 1e-20):
            h = -eps * np.log(eps) - (1 - eps) * np.log1p(-eps)
            assert abs(holevo(np.array([1 - eps, eps]), ch) - h) <= 1e-12


def test_orthogonal_pure_states_log_n(rng):
    states = np.zeros((2, 2, 2), dtype=complex)
    states[0, 0, 0] = 1.0
    states[1, 1, 1] = 1.0
    ch = CQChannel(states)
    ni = capacity_cq_noniterative(ch)
    assert abs(ni.capacity - np.log(2)) < 1e-8
    reg = CQChannel(_regularize(states, 1e-12))
    it = capacity_cq_iterative(reg)
    assert abs(it.capacity - np.log(2)) < 1e-8


def test_relative_entropy_identity_on_built_system(rng):
    ch = random_qubit_pair(rng)
    prob = build_problem(ch)
    sys = prob.rem.sys
    for _ in range(5):
        t1 = 0.4 * rng.normal(size=sys.dim)
        t2 = 0.4 * rng.normal(size=sys.dim)
        r1, r2 = sys.state(t1), sys.state(t2)
        w2, v2 = np.linalg.eigh(r2)
        log_r2 = (v2 * np.log(w2)) @ v2.conj().T
        rel = float((-_state_entropies(r1[None])[0]
                     - np.trace(r1 @ log_r2).real))
        from revem.bregman import divergence
        assert abs(divergence(sys, t1, t2) - rel) < 1e-9


def test_monotone_objective_and_gap_bound(rng):
    ch = random_qubit_pair(rng)
    prob = build_problem(ch)
    trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                 stepper="natural", tol=0.0, max_iter=80)
    diffs = np.diff(trace.objective_values)
    assert np.min(diffs, initial=0.0) > -1e-10
    best = trace.objective_values[-1]
    for t in range(1, len(trace.objective_values) + 1):
        assert best - trace.objective_values[t - 1] <= np.log(2) / t + 1e-12


def test_holevo_batch_matches_holevo(rng):
    # The oracle's batched grid equals the scalar Holevo quantity, endpoints
    # and rank-deficient states included.
    grid = np.linspace(0.0, 1.0, 201)
    for dim in (2, 3):
        for rank in (dim, 1):
            states = []
            for _ in range(2):
                a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                rho = a @ a.conj().T
                states.append(rho / np.trace(rho).real)
            ch = CQChannel(np.array(states))
            p = np.stack([grid, 1 - grid], axis=1)
            expect = [holevo(row, ch) for row in p]
            assert np.max(np.abs(holevo_batch(p, ch) - expect)) <= 1e-12


def seeded_cq_channels(count, seed=9):
    """n1 from 2 to min(4, d^2) states of dimension d in {2, 3}; each state
    is pure with probability 0.3, otherwise a normalized Ginibre product."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 4))
        n1 = int(rng.integers(2, min(4, dim * dim) + 1))
        states = []
        for _ in range(n1):
            if rng.random() < 0.3:
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                states.append(np.outer(v, v.conj()) / (v.conj() @ v).real)
            else:
                states.append(random_density(rng, dim))
        yield CQChannel(np.array(states))


def test_em_route_matches_the_oracles_or_reports_no_intersection():
    # A converged em value agrees with the oracle, and em never claims an
    # intersection where non_iterative puts the maximum outside the open
    # simplex.  Channel 9 (two pure qutrit states, optimum (1/2, 1/2)) is
    # one where em reports converged=False although the maximum is interior.
    verdicts = []
    for ch in seeded_cq_channels(10):
        out = capacity(problem(ch), "em", 1e-10)
        exists = rem.non_iterative(build_problem(ch).rem).exists
        if out.converged:
            ref = (holevo_oracle(ch) if ch.n_inputs == 2
                   else capacity_cq_noniterative(ch).capacity)
            assert abs(out.capacity - ref) <= 1e-8
        else:
            assert np.isnan(out.capacity)
        assert exists or not out.converged
        verdicts.append((out.converged, exists))
    assert verdicts.count((True, True)) == 3
    assert verdicts.count((False, False)) == 6
