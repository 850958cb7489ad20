import numpy as np
import pytest

from revem import reverse_em as rem
from revem import classical
from revem.classical import (Channel, capacity, capacity_general, capacity_special,
                             entropy)
from revem.errors import InvalidChannelError, NotDegradedError
from revem.numerics import kernel_basis
from revem.wiretap import (WiretapChannel, build_problem, check_degraded, problem,
                           secrecy_capacity, secrecy_objective, secrecy_oracle)


def degraded_channel(w_y, t_map):
    """tensor[x, z, y] = T(z|y) W_Y(y|x)."""
    return WiretapChannel(np.einsum("zy,yx->xzy", t_map, w_y))


def bsc_matrix(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def random_degraded(rng, n1=2, n3=3, n2=2):
    w_y = rng.dirichlet(np.ones(n3), size=n1).T
    w_y = (w_y + 0.05) / (1 + n3 * 0.05)
    t_map = rng.dirichlet(np.ones(n2), size=n3).T
    t_map = (t_map + 0.05) / (1 + n2 * 0.05)
    return degraded_channel(w_y, t_map)


def test_validation_and_marginals():
    with pytest.raises(InvalidChannelError):
        WiretapChannel(np.full((2, 2, 2), 0.3))
    tensor = np.full((2, 2, 2), 0.25)
    tensor[1, 0, 1] = np.nan
    with pytest.raises(InvalidChannelError, match="non-finite"):
        WiretapChannel(tensor)
    for shape in ((0, 2, 3), (2, 0, 3), (2, 3, 0)):
        with pytest.raises(InvalidChannelError, match="no empty axis"):
            WiretapChannel(np.zeros(shape))
    ch = degraded_channel(bsc_matrix(0.1), bsc_matrix(0.2))
    assert np.allclose(ch.bob_marginal(), bsc_matrix(0.1))
    assert np.allclose(ch.eve_marginal(),
                       bsc_matrix(0.2) @ bsc_matrix(0.1))


def test_degradedness_check():
    ch = degraded_channel(bsc_matrix(0.1), bsc_matrix(0.15))
    ok, residual = check_degraded(ch)
    assert ok and residual < 1e-12
    # Eve strictly better than Bob: not degraded
    bad = WiretapChannel(np.einsum("zx,yz->xzy", bsc_matrix(0.05),
                                   bsc_matrix(0.3)))
    ok, residual = check_degraded(bad)
    assert not ok and residual > 1e-4
    with pytest.raises(NotDegradedError):
        secrecy_capacity(bad)


def test_eve_equals_bob_gives_zero():
    ch = degraded_channel(bsc_matrix(0.1), np.eye(2))
    out = secrecy_capacity(ch)
    assert abs(out.capacity) <= 1e-8
    assert abs(secrecy_oracle(ch)) <= 1e-12


def test_constant_eve_reduces_to_classical(rng):
    w_y = rng.dirichlet(np.ones(3), size=2).T
    w_y = (w_y + 0.02) / 1.06
    ch = WiretapChannel(w_y.T[:, None, :].copy())
    out = secrecy_capacity(ch)
    classical = capacity_general(Channel(w_y))
    assert abs(out.capacity - classical.capacity) < 1e-6


def test_degraded_binary_matches_grid_oracle(rng):
    # asymmetric Bob channel so the optimum is not the uniform input
    w_y = np.array([[0.82, 0.25], [0.18, 0.75]])
    t_map = np.array([[0.9, 0.2], [0.1, 0.8]])
    ch = degraded_channel(w_y, t_map)
    out = secrecy_capacity(ch)
    oracle = secrecy_oracle(ch, 500)
    assert out.iterations > 0
    assert abs(out.capacity - oracle) < 1e-5
    assert np.max(np.abs(out.input_distribution - 0.5)) > 1e-3

    for _ in range(3):
        ch = random_degraded(rng)
        out = secrecy_capacity(ch)
        assert abs(out.capacity - secrecy_oracle(ch, 400)) < 1e-5


def conditional_objective(channel, q):
    """I(X;Y|Z) at q: the quantity the geometry maximizes for any channel."""
    joint = channel.tensor * np.asarray(q, dtype=float)[:, None, None]  # (x, z, y)
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


def test_objective_identity_three_ways(rng):
    ch = degraded_channel(np.array([[0.82, 0.25], [0.18, 0.75]]),
                          np.array([[0.9, 0.2], [0.1, 0.8]]))
    prob = build_problem(ch)
    p = prob.rem
    for _ in range(5):
        theta_a = 0.6 * rng.normal(size=p.k)
        q = prob.decode_input(theta_a)
        obj, _ = rem._objective_and_residual(p, theta_a, {})
        direct = secrecy_objective(ch, q)
        conditional = conditional_objective(ch, q)
        assert abs(obj - direct) < 1e-9
        assert abs(obj - conditional) < 1e-9


def test_m_projection_factorizes(rng):
    ch = random_degraded(rng)
    prob = build_problem(ch)
    p = prob.rem
    n1, n2, n3 = ch.tensor.shape
    from revem.families import m_projection
    for _ in range(3):
        theta_a = 0.5 * rng.normal(size=p.k)
        ambient = p.m_ambient(theta_a)
        joint = p.sys.distribution(ambient).reshape(n1, n2, n3)
        _, onto_e = m_projection(p.sys, p.family_E, ambient)
        proj = p.sys.distribution(onto_e).reshape(n1, n2, n3)
        p_xz = joint.sum(axis=2)
        p_y_given_z = joint.sum(axis=0) / joint.sum(axis=(0, 2))[:, None]
        expect = np.einsum("xz,zy->xzy", p_xz, p_y_given_z)
        assert np.max(np.abs(proj - expect)) < 1e-9


def test_v1_block_pattern(rng):
    ch = random_degraded(rng, n1=3, n3=2, n2=2)
    prob = build_problem(ch)
    p = prob.rem
    n1, n2, n3 = ch.tensor.shape
    k = n1 - 1
    assert np.max(np.abs(p.dual_matrix[:, :k] - np.eye(k))) < 1e-10
    zero_width = n1 * (n2 - 1)
    assert np.max(np.abs(p.dual_matrix[:, k:k + zero_width])) < 1e-10
    # trailing block carries the joint dual moments
    duals_block = p.dual_matrix[:, k + zero_width:]
    assert duals_block.shape == (k, n2 * (n3 - 1))


def reference_columns(tensor):
    """Features and generators of the X-Z-Y geometry, one column at a time."""
    n1, n2, n3 = tensor.shape
    reg = ((1.0 - classical.GEOMETRY_REGULARIZATION) * tensor
           + classical.GEOMETRY_REGULARIZATION / (n2 * n3))
    w_z = reg.sum(axis=2)
    cond = reg / w_z[:, :, None]
    duals = [kernel_basis(cond[-1, z][None, :]) for z in range(n2)]
    feats, gens = [], []
    for i in range(n1 - 1):
        block = np.zeros((n1, n2, n3))
        block[i] = 1.0
        feats.append(block)
        gens.append(block)
    for i in range(n1):
        for z in range(n2 - 1):
            block = np.zeros((n1, n2, n3))
            block[i] = -w_z[i, z]
            block[i, z] += 1.0
            feats.append(block)
            gens.append(block)
    for i in range(n1):
        for z in range(n2):
            for j in range(n3 - 1):
                block = np.zeros((n1, n2, n3))
                moment = duals[z][:, j] @ cond[i, z] if i < n1 - 1 else 0.0
                block[i, z] = duals[z][:, j] - moment
                feats.append(block)
    for z in range(n2):
        for j in range(n3 - 1):
            block = np.zeros((n1, n2, n3))
            block[:, z] = duals[z][:, j]
            gens.append(block)
    return (np.array([b.reshape(-1) for b in feats]).T,
            np.array([b.reshape(-1) for b in gens]).T)


def test_geometry_matches_column_by_column_reference(rng):
    # markov_geometry assembles its columns with numpy; the loop above is the
    # reference, for wiretap channels and for plain channels (|Z| = 1).
    cases = [random_degraded(rng, n1=n1, n3=n3, n2=n2)
             for n1, n2, n3 in ((2, 1, 3), (3, 2, 2), (3, 3, 4), (4, 2, 3))]
    plain = Channel(rng.dirichlet(np.ones(4), size=3).T)
    geometries = [(ch.tensor, build_problem(ch).rem) for ch in cases]
    geometries.append((plain.matrix.T[:, None, :], classical.build_problem(plain).rem))
    for tensor, p in geometries:
        feats, gens = reference_columns(tensor)
        assert np.max(np.abs(p.sys.features - feats)) <= 1e-12
        assert np.max(np.abs(p.sys.features @ p.family_E.generators - gens)) <= 1e-12


def test_monotone_objective_and_gap_bound(rng):
    ch = random_degraded(rng, n1=3, n3=3, n2=2)
    prob = build_problem(ch)
    trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                 stepper="natural", tol=0.0, max_iter=120)
    diffs = np.diff(trace.objective_values)
    assert np.min(diffs, initial=0.0) > -1e-10
    best = trace.objective_values[-1]
    for t in range(1, len(trace.objective_values) + 1):
        assert best - trace.objective_values[t - 1] <= np.log(3) / t + 1e-12


def test_one_letter_eavesdropper_has_the_split(rng):
    # A wiretap channel whose eavesdropper sees one letter is the plain
    # channel X -> Y: its geometry has the product split (DECISIONS.md), and
    # the non-iterative formula on it gives the channel's capacity.
    checked = 0
    for _ in range(20):
        n_in = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(int(rng.integers(n_in, 6))), size=n_in).T
        w = (w + 0.02) / (1.0 + w.shape[0] * 0.02)
        special = capacity_special(Channel(w))
        if special.negative_support:
            continue
        p = build_problem(WiretapChannel(w.T[:, None, :])).rem
        assert p.split is not None
        assert abs(rem.non_iterative(p).capacity - special.capacity) <= 1e-10
        checked += 1
    assert checked >= 10


def test_cross_hessian_vanishes_only_for_one_eve_letter(rng):
    # F_E separates as F_a(theta_a) + F_b(theta_rest) iff its cross-Hessian
    # between the input coordinates and the rest is zero: it is for |Z| = 1,
    # and the input-specific eavesdropper coordinates make it nonzero for
    # |Z| >= 2.
    for n2 in (1, 2, 3):
        ch = random_degraded(rng, n1=3, n3=3, n2=n2)
        p = build_problem(ch).rem
        _, _, hess = p.E_system.value_grad_hess(0.5 * rng.normal(size=p.l))
        cross = np.max(np.abs(hess[:p.k, p.k:]))
        if n2 == 1:
            assert cross < 1e-12 and p.split is not None
        else:
            assert cross > 1e-3 and p.split is None


def test_secrecy_oracle_rejects_empty_grid():
    ch = degraded_channel(bsc_matrix(0.1), bsc_matrix(0.2))
    for grid_points in (0, -5):
        with pytest.raises(ValueError, match="grid_points"):
            secrecy_oracle(ch, grid_points)


def sparse_degraded_channels(count, seed=3):
    """Degraded channels whose map T has zeros: n1 in {2, 3}, |Y| from n1 + 1
    to 6, |Z| from 2 to 3, Dirichlet columns of W_Y and T, each entry of T
    zeroed with probability 1/2 (a column that loses every entry keeps its
    draw), then renormalized."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n1 = int(rng.integers(2, 4))
        n3 = int(rng.integers(n1 + 1, 7))
        n2 = int(rng.integers(2, 4))
        w_y = rng.dirichlet(np.ones(n3), size=n1).T
        t_map = rng.dirichlet(np.ones(n2), size=n3).T
        kept = np.where(rng.random(t_map.shape) < 0.5, 0.0, t_map)
        empty = kept.sum(axis=0) == 0
        kept[:, empty] = t_map[:, empty]
        yield degraded_channel(w_y, kept / kept.sum(axis=0))


def test_merged_outputs_channel_is_degraded():
    # Eve sees Bob's outputs 2 and 3 merged, so the map T has zeros: it sits
    # on the boundary of the nonnegative fit, which the check must reach
    # exactly rather than stop short of.
    ch = degraded_channel(np.array([[0.5, 0.1], [0.3, 0.3], [0.2, 0.6]]),
                          np.array([[1.0, 0, 0], [0, 1, 1]]))
    ok, residual = check_degraded(ch)
    assert ok and residual <= 1e-12
    assert abs(secrecy_capacity(ch).capacity - secrecy_oracle(ch, 400)) <= 1e-5


def test_sparse_degraded_channels_are_accepted():
    for ch in sparse_degraded_channels(60):
        ok, residual = check_degraded(ch)
        assert ok and residual <= 1e-12, ch.tensor.shape


def test_three_input_oracle_matches_secrecy_capacity():
    # The secrecy objective of a degraded channel is concave in q, so the
    # oracle's nested 1-d refinement finds its maximum.
    rng = np.random.default_rng(9)
    smallest_weights = []
    for _ in range(4):
        n3, n2 = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        ch = degraded_channel(rng.dirichlet(np.ones(n3), size=3).T,
                              rng.dirichlet(np.ones(n2), size=n3).T)
        out = secrecy_capacity(ch)
        assert abs(secrecy_oracle(ch, 200) - out.capacity) <= 1e-8
        smallest_weights.append(out.input_distribution.min())
    # One of the optima leaves an input unused.
    assert min(smallest_weights) <= 1e-6


def test_three_input_oracle_is_never_below_its_grid(monkeypatch):
    # On a channel that is not degraded the refinement may land below the
    # best grid point; each level then keeps its grid maximum.  With the
    # refinement stubbed out the oracle is the maximum over the 41 x 41 grid.
    rng = np.random.default_rng(5)
    ch = WiretapChannel(np.einsum("zx,yx->xzy", rng.dirichlet(np.ones(2), size=3).T,
                                  rng.dirichlet(np.ones(3), size=3).T))
    assert not check_degraded(ch)[0]
    monkeypatch.setattr("revem.wiretap.maximize_on_unit_interval",
                        lambda value, grid_values: -np.inf)
    grid = np.linspace(0.0, 1.0, 41)
    best = max(secrecy_objective(ch, np.array([a, (1 - a) * s, (1 - a) * (1 - s)]))
               for a in grid for s in grid)
    assert secrecy_oracle(ch, 160) == best


def test_em_route_converges_exactly_on_interior_optima():
    # Degraded channels with Dirichlet W_Y and T and no mass floor, so that
    # some optima leave an input unused: em finds the intersection exactly
    # when the iterative optimum keeps every weight at least 1e-4, and then
    # agrees with the grid oracle.
    rng = np.random.default_rng(9)
    verdicts = []
    for _ in range(8):
        n1 = int(rng.integers(2, 4))
        n3, n2 = int(rng.integers(n1, 6)), int(rng.integers(2, 4))
        ch = degraded_channel(rng.dirichlet(np.ones(n3), size=n1).T,
                              rng.dirichlet(np.ones(n2), size=n3).T)
        out = capacity(problem(ch), "em", 1e-10)
        interior = secrecy_capacity(ch).input_distribution.min() >= 1e-4
        assert out.converged == interior
        if out.converged:
            assert abs(out.capacity - secrecy_oracle(ch, 200)) <= 1e-8
        verdicts.append(out.converged)
    assert verdicts.count(False) == 2


def test_non_degraded_channel_has_no_problem():
    ch = WiretapChannel(np.einsum("zx,yz->xzy", np.array([[0.95, 0.05], [0.05, 0.95]]),
                                  np.array([[0.7, 0.3], [0.3, 0.7]])))
    with pytest.raises(NotDegradedError):
        problem(ch)
