import numpy as np
import pytest

from conftest import chan1, random_channel, random_features
from revem import reverse_em as rem
from revem import cq, wiretap
from revem.bregman import classical_system, divergence, natural_param
from revem.classical import (NEG_TOL, Channel, blahut_arimoto, build_problem,
                             capacity_special, mutual_information, split)
from revem.errors import (ConditionViolationError, DegenerateChannelError,
                          ImageMembershipError, InfeasibleSystemError,
                          InvalidSpecError, ProjectionError, RevemError)
from revem.families import (ExponentialSubfamily, MixtureSubfamily,
                            e_projection, m_projection)
from revem.numerics import minimize_fgh


def bsc_problem(p=0.1):
    return build_problem(Channel(np.array([[1 - p, p], [p, 1 - p]])))


def test_v1_block_structure(rng):
    mat = chan1(0.1).matrix
    prob = build_problem(Channel(mat))
    k = prob.rem.k
    moments = split(mat).moments
    assert np.max(np.abs(prob.rem.dual_matrix[:, :k] - np.eye(k))) < 1e-12
    assert np.max(np.abs(prob.rem.dual_matrix[:, k:] - moments)) < 1e-9


def test_bsc_uniform_is_fixed_point():
    prob = bsc_problem()
    theta = prob.theta_a_uniform
    assert rem._objective_and_residual(prob.rem, theta, {})[1] < 1e-9
    for step in (rem.inverse_step_mixture, rem.inverse_step_natural):
        assert np.max(np.abs(step(prob.rem, theta) - theta)) < 1e-9


def test_fixed_point_matches_ba_optimum():
    channel = chan1(0.0)
    prob = build_problem(channel)
    ba = blahut_arimoto(channel, tol=1e-13)
    coord = natural_param(prob.rem.M_system, ba.input_distribution[:-1])
    assert rem._objective_and_residual(prob.rem, coord, {})[1] < 1e-6
    # a clearly suboptimal point is far from fixed
    off = natural_param(prob.rem.M_system, np.array([0.7, 0.1, 0.1]))
    assert rem._objective_and_residual(prob.rem, off, {})[1] > 1e-3
    # launching the solver at the optimum barely moves it
    trace = rem.solve_reverse_em(prob.rem, coord, stepper="natural", max_iter=3)
    moved = np.max(np.abs(trace.theta_a - coord))
    assert moved < 1e-6


def test_inverse_map_identity_via_projections(rng):
    for _ in range(5):
        channel = random_channel(rng, 3, 4)
        prob = build_problem(channel)
        p = prob.rem
        theta_a = 0.5 * rng.normal(size=p.k)
        theta_new = rem.inverse_step_mixture(p, theta_a)
        # apply the forward composite through the actual ambient projections
        ambient = p.m_ambient(theta_new)
        _, onto_e = m_projection(p.sys, p.family_E, ambient)
        back = e_projection(p.sys, p.family_M, onto_e)
        recovered = p.m_coords(back)
        assert np.max(np.abs(recovered - theta_a)) < 1e-8


def test_step_equivalence_on_chan1(rng):
    prob = build_problem(chan1(0.0))
    p = prob.rem
    for _ in range(3):
        theta_a = 0.4 * rng.normal(size=p.k)
        a = rem.inverse_step_mixture(p, theta_a)
        b = rem.inverse_step_natural(p, theta_a)
        c = rem.inverse_step_eps(p, theta_a, eps=1e-15)
        assert np.max(np.abs(a - b)) < 1e-8
        assert np.max(np.abs(a - c)) < 1e-7


def test_eps_step_degenerate_tolerance():
    prob = bsc_problem(0.2)
    theta = prob.theta_a_uniform + 0.5
    out = rem.inverse_step_eps(prob.rem, theta, eps=1e6)
    assert np.all(np.isfinite(out))


def test_residual_formulations_agree(rng):
    prob = build_problem(chan1(0.1))
    p = prob.rem
    for _ in range(5):
        theta_a = 0.4 * rng.normal(size=p.k)
        eta_a = p.M_system.gradient(theta_a)
        # (D2): through the dual gradient maps
        theta_c = natural_param(p.E_system, p.dual_matrix.T @ eta_a, grad_tol=1e-12)
        r2 = np.linalg.norm(p.dual_matrix @ theta_c - theta_a)
        # (D3): right-hand side recomputed through the inverse map of F_M
        r3 = np.linalg.norm(p.dual_matrix @ theta_c
                            - natural_param(p.M_system, eta_a, grad_tol=1e-12))
        # (D1): invariance defect through the ambient projections
        _, onto_e = m_projection(p.sys, p.family_E, p.m_ambient(theta_a))
        back = e_projection(p.sys, p.family_M, onto_e)
        r1 = np.linalg.norm(p.m_coords(back) - theta_a)
        assert abs(r1 - r2) < 1e-9
        assert abs(r2 - r3) < 1e-9
        assert abs(rem._objective_and_residual(p, theta_a, {})[1] - r2) < 1e-9


def test_solver_capacities_and_monotonicity():
    channel = chan1(0.1)
    prob = build_problem(channel)
    ba = blahut_arimoto(channel, tol=1e-12)
    for stepper, kwargs in (("natural", {}), ("mixture", {}),
                            ("eps", {"eps": 1e-12})):
        trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                     stepper=stepper, **kwargs)
        assert trace.converged
        assert abs(trace.capacity - ba.capacity) < 1e-6
        diffs = np.diff(trace.objective_values)
        assert np.min(diffs, initial=0.0) > -1e-10

    ident = build_problem(Channel(np.eye(2)))
    trace = rem.solve_reverse_em(ident.rem, ident.theta_a_uniform)
    assert abs(trace.capacity - np.log(2)) < 1e-9


def test_convergence_rate_bound():
    channel = chan1(0.1)
    prob = build_problem(channel)
    ba = blahut_arimoto(channel, tol=1e-12)
    trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                 stepper="natural", tol=0.0, max_iter=200)
    objs = trace.objective_values
    for t in range(1, len(objs) + 1):
        assert ba.capacity - objs[t - 1] <= np.log(4) / t + 1e-12


def test_eps_solver_monotone_up_to_slack():
    prob = build_problem(chan1(0.1))
    trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                 stepper="eps", eps=1e-8, tol=1e-12)
    diffs = np.diff(trace.objective_values)
    assert np.min(diffs, initial=0.0) > -1e-4
    assert trace.capacity == pytest.approx(np.max(trace.objective_values))


def designed_em_instance(rng):
    """Instance with a strictly positive em minimum: a 1-d exponential curve
    against a 2-d mixture slice in a 4-d system (generically disjoint)."""
    sys = classical_system(random_features(rng, 6, 4))
    fam_e = ExponentialSubfamily(np.array([[1.0], [0.5], [-0.25], [0.8]]),
                                 np.array([0.2, -0.1, 0.0, 0.4]))
    base_grad = sys.gradient(np.zeros(4))
    fam_m = MixtureSubfamily(np.eye(4), 2, 0.9 * base_grad[2:])
    return sys, fam_e, fam_m


def test_em_minimize_matches_grid_oracle(rng):
    sys, fam_e, fam_m = designed_em_instance(rng)
    result = rem.em_minimize(sys, fam_m, fam_e, fam_e.ambient(np.zeros(1)))
    assert result.converged
    assert result.c_inf > 1e-4  # families genuinely separated

    def member_gap(a, b):
        member = e_projection(sys, fam_m, np.array([a, b, 0.0, 0.0]))
        _, proj = m_projection(sys, fam_e, member)
        return divergence(sys, member, proj), (a, b)

    coarse = min(member_gap(a, b)
                 for a in np.linspace(-3, 3, 41) for b in np.linspace(-3, 3, 41))
    a0, b0 = coarse[1]
    fine = min(member_gap(a, b)
               for a in np.linspace(a0 - 0.16, a0 + 0.16, 41)
               for b in np.linspace(b0 - 0.16, b0 + 0.16, 41))
    best = fine[0]
    assert result.c_inf <= best + 1e-9
    assert abs(result.c_inf - best) < 1e-5


def test_em_minimize_zero_when_families_intersect():
    # identical channel rows make {W x q} product distributions
    mat = np.array([[0.3, 0.3], [0.7, 0.7]])
    prob = build_problem(Channel(mat))
    p = prob.rem
    result = rem.em_minimize(p.sys, p.family_M, p.family_E, p.family_E.ambient(np.zeros(p.l)))
    assert result.c_inf < 1e-10


def test_em_conversion_matches_other_solvers():
    channel = chan1(0.0)
    prob = build_problem(channel)
    trace = rem.solve_reverse_em(prob.rem, prob.theta_a_uniform)
    conv = rem.em_conversion(prob.rem)
    assert conv.intersection_found
    assert abs(conv.capacity - trace.capacity) < 1e-6

    p = 0.15
    prob = bsc_problem(p)
    conv = rem.em_conversion(prob.rem)
    analytic = np.log(2) + p * np.log(p) + (1 - p) * np.log(1 - p)
    assert conv.intersection_found
    assert abs(conv.capacity - analytic) < 1e-9


def test_em_conversion_reports_boundary_case():
    # past the support transition the supremum is not attained
    prob = build_problem(chan1(0.76))
    conv = rem.em_conversion(prob.rem, max_iter=3000)
    assert not conv.intersection_found
    assert conv.capacity is None


def _random_cq(rng, n_in, dim):
    """Full-rank states mixed with 1e-6 of the maximally mixed state."""
    a = rng.normal(size=(n_in, dim, dim)) + 1j * rng.normal(size=(n_in, dim, dim))
    states = a @ a.conj().transpose(0, 2, 1)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    return cq.CQChannel((1.0 - 1e-6) * states + 1e-6 * np.eye(dim) / dim)


@pytest.mark.parametrize("kind", ["classical", "cq"])
def test_product_restriction_matches_dense(kind, rng):
    # em_conversion's product system restricts a slice as the sum of its
    # factors' restrictions; compare with the direct sum assembled densely.
    if kind == "classical":
        p = build_problem(random_channel(rng, 3, 4)).rem
    else:
        p = cq.build_problem(_random_cq(rng, 2, 2)).rem
    k, l = p.k, p.l
    prod = rem._ProductSystem(p.M_system, p.E_system)
    e_dirs = np.vstack([p.dual_matrix, -np.eye(l)])
    m_gens = np.vstack([p.dual_matrix, np.eye(l)])
    for gens, offset in ((e_dirs, 0.5 * rng.normal(size=k + l)),
                         (m_gens, np.zeros(k + l))):
        sub = prod.restrict(gens, offset)
        for _ in range(5):
            c = 0.5 * rng.normal(size=l)
            x = offset + gens @ c
            fm, gm, hm = p.M_system.value_grad_hess(x[:k])
            fe, ge, he = p.E_system.value_grad_hess(x[k:])
            hess = np.zeros((k + l, k + l))
            hess[:k, :k] = hm
            hess[k:, k:] = he
            f, g, h = prod.value_grad_hess(x)
            assert f == fm + fe and np.array_equal(g, np.concatenate([gm, ge]))
            assert np.array_equal(h, hess)
            grad = gens.T @ np.concatenate([gm, ge])
            f, g, h = sub.value_grad_hess(c)
            assert abs(f - (fm + fe)) <= 1e-12
            assert np.max(np.abs(g - grad)) <= 1e-12
            assert np.max(np.abs(h - gens.T @ hess @ gens)) <= 1e-12
            f, g = sub.value_grad(c)
            assert abs(f - (fm + fe)) <= 1e-12
            assert np.max(np.abs(g - grad)) <= 1e-12


def test_em_conversion_on_cq_factors():
    rng = np.random.default_rng(3)
    for dim in (2, 2, 3, 3):
        channel = _random_cq(rng, 2, dim)
        conv = rem.em_conversion(cq.build_problem(channel).rem)
        assert conv.intersection_found
        assert abs(conv.capacity - cq.capacity_cq_noniterative(channel).capacity) <= 1e-8


def test_em_conversion_on_wiretap_factors():
    rng = np.random.default_rng(5)
    for _ in range(3):
        bob = rng.dirichlet(np.ones(3), size=2).T
        bob = (bob + 0.05) / 1.15
        t_map = rng.dirichlet(np.ones(2), size=3).T
        t_map = (t_map + 0.05) / 1.10
        channel = wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob))
        geo = wiretap.build_problem(channel)
        conv = rem.em_conversion(geo.rem)
        assert conv.intersection_found
        value = wiretap.secrecy_objective(channel, geo.decode_input(conv.theta_a))
        assert abs(value - wiretap.secrecy_oracle(channel, 400)) <= 1e-8


def test_non_iterative_paths(rng):
    channel = chan1(0.1)
    prob = build_problem(channel)
    ba = blahut_arimoto(channel, tol=1e-12)
    res = rem.non_iterative(prob.rem)
    assert res.exists
    assert abs(res.capacity - ba.capacity) < 1e-6
    q = prob.decode_input(res.theta_a)
    assert abs(mutual_information(channel.matrix, q) - ba.capacity) < 1e-8

    prob = build_problem(chan1(0.76))
    res = rem.non_iterative(prob.rem)
    assert not res.exists

    # square case: dual_tail invertible, no inner minimization needed
    channel = random_channel(rng, 2, 2)
    prob = build_problem(channel)
    assert prob.rem.dual_tail.shape == (1, 1)
    res = rem.non_iterative(prob.rem)
    ba = blahut_arimoto(channel, tol=1e-12)
    assert res.exists
    assert abs(res.capacity - ba.capacity) < 1e-6


def test_non_iterative_routes_agree(rng):
    # The engine's non_iterative on the regularized geometry and the
    # channel-level capacity_special run one formula on their splits: the
    # same negative supports, and the same values wherever the maximum is
    # interior.  The closed-form categorical inverse of non_iterative agrees
    # with the Newton inversion natural_param, image verdict included.
    channels = [chan1(0.76), chan1(0.8), Channel(np.eye(3))]
    for _ in range(40):
        n_in = int(rng.integers(2, 5))
        channels.append(random_channel(rng, n_in, int(rng.integers(n_in, 7))))
    for _ in range(20):
        n_in = int(rng.integers(3, 5))
        cols = rng.dirichlet(np.full(n_in + 1, 0.3), size=n_in).T
        channels.append(Channel((cols + 1e-3) / (1.0 + (n_in + 1) * 1e-3)))
    agreed = boundary = 0
    for channel in channels:
        p = build_problem(channel).rem
        res = rem.non_iterative(p)
        special = capacity_special(channel)
        weights = np.append(res.eta_a, 1.0 - res.eta_a.sum())
        assert tuple(np.flatnonzero(weights < -NEG_TOL)) == special.negative_support
        k = res.eta_a.size
        sys_a = classical_system(np.eye(k + 1, k))
        if not res.exists:
            boundary += 1
            with pytest.raises(ImageMembershipError):
                natural_param(sys_a, res.eta_a)
            continue
        assert np.max(np.abs(natural_param(sys_a, res.eta_a) - res.theta_c[:k])) <= 1e-9
        # theta_a is read through the mixture side's closed-form inverse.
        assert np.max(np.abs(p.M_system.gradient(res.theta_a) - res.eta_a)) <= 1e-14
        assert abs(res.capacity - special.capacity) <= 1e-10
        agreed += 1
    assert agreed >= 10 and boundary >= 5


def test_dual_offset_constancy(rng):
    # Reference probe: theta - (grad F_a)^{-1}(grad F_M(theta)) is the same
    # constant for every mixture parameter theta, and it is the split's
    # closed-form entropy difference.
    prob = build_problem(chan1(0.1))
    p = prob.rem
    sys_a = classical_system(np.eye(p.k + 1, p.k))
    values = []
    for _ in range(5):
        theta_probe = rng.normal(scale=0.3, size=p.k)
        values.append(theta_probe - natural_param(sys_a, p.M_system.gradient(theta_probe)))
    values = np.asarray(values)
    assert np.max(np.abs(values - values[0])) <= 1e-8
    assert np.max(np.abs(values[0] - p.split.dual_offset)) < 1e-8


def _degraded_wiretap_problem():
    bob = np.array([[0.8, 0.1], [0.15, 0.2], [0.05, 0.7]])
    t_map = np.array([[0.9, 0.3, 0.2], [0.1, 0.7, 0.8]])
    return wiretap.build_problem(
        wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob)))


def test_solver_validates_stepper():
    prob = bsc_problem()
    with pytest.raises(ValueError):
        rem.solve_reverse_em(prob.rem, prob.theta_a_uniform, stepper="bogus")
    with pytest.raises(ValueError):
        rem.solve_reverse_em(prob.rem, prob.theta_a_uniform, stepper="eps")
    # doubled generators double the dual matrix, so its leading block is 2 I
    p = prob.rem
    doubled = rem.ReverseEmProblem(
        sys=p.sys, family_E=ExponentialSubfamily(2 * p.family_E.generators,
                                                 p.family_E.offset),
        family_M=p.family_M, theta_tail=p.theta_tail)
    assert p.leading_identity_block and not doubled.leading_identity_block
    with pytest.raises(ConditionViolationError):
        rem.inverse_step_natural(doubled, prob.theta_a_uniform)
    # the wiretap geometry has the identity block but no split potential
    wt = _degraded_wiretap_problem()
    assert wt.rem.leading_identity_block and wt.rem.split is None
    with pytest.raises(ConditionViolationError):
        rem.non_iterative(wt.rem)


def test_steps_store_m_projection_of_new_iterate(rng):
    # Each inverse step leaves in state["theta_c"] the E-point it solved for,
    # which warm-starts the next objective evaluation; it must be the
    # m-projection of the iterate the step returns.
    problems = [build_problem(random_channel(rng, 3, 4)).rem for _ in range(3)]
    problems.append(_degraded_wiretap_problem().rem)
    assert problems[-1].split is None and problems[0].split is not None
    steps = (rem.inverse_step_mixture, rem.inverse_step_natural,
             lambda p, theta, state: rem.inverse_step_eps(p, theta, 1e-12, state))
    for p in problems:
        for step in steps:
            state = {}
            theta_new = step(p, 0.3 * rng.normal(size=p.k), state)
            target = p.family_E.generators.T @ p.sys.gradient(p.m_ambient(theta_new))
            expected = natural_param(p.E_system, target, grad_tol=1e-12)
            assert np.max(np.abs(state["theta_c"] - expected)) < 1e-8


def _input_marginal(kind, geo, theta_a):
    """Input marginal of the member theta_a, read off its joint."""
    amb = geo.rem.m_ambient(theta_a)
    n1 = geo.rem.k + 1
    if kind == "cq":
        rho = geo.rem.sys.state(amb)
        blocks = rho.reshape(n1, rho.shape[0] // n1, n1, rho.shape[0] // n1)
        return np.array([np.trace(blocks[i, :, i, :]).real for i in range(n1)])
    return geo.rem.sys.distribution(amb).reshape(n1, -1).sum(axis=1)


@pytest.mark.parametrize("kind", ["classical", "wiretap", "cq"])
def test_decode_input_is_input_marginal(kind, rng):
    if kind == "classical":
        geo = build_problem(random_channel(rng, 3, 4))
    elif kind == "wiretap":
        bob = rng.dirichlet(np.ones(3), size=3).T
        t_map = rng.dirichlet(np.ones(2), size=3).T
        geo = wiretap.build_problem(
            wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob)))
    else:
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        states = a @ a.conj().transpose(0, 2, 1)
        geo = cq.build_problem(cq.CQChannel(
            states / np.trace(states, axis1=1, axis2=2).real[:, None, None]))
    for _ in range(50):
        theta_a = rng.normal(size=geo.rem.k)
        q = geo.decode_input(theta_a)
        assert np.max(np.abs(q - _input_marginal(kind, geo, theta_a))) <= 1e-12


def _four_factorization_split_maximizer(sp):
    """The non-iterative formula as it read with one factorization per
    step: matrix_rank for the row-rank check, pinv for the least-norm
    point, a full SVD for the kernel and pinv of the transpose for the
    weights.  Returns (weights, value, residual)."""
    mat, rhs = sp.moments, sp.dual_offset
    if np.linalg.matrix_rank(mat, tol=1e-10) < mat.shape[0]:
        raise DegenerateChannelError("row-rank deficient")
    theta = np.linalg.pinv(mat, rcond=1e-10) @ rhs
    if np.linalg.norm(mat @ theta - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise InfeasibleSystemError("first solve")
    _, svals, vt = np.linalg.svd(mat)
    kernel = vt[int(np.sum(svals > 1e-10 * svals[0])):].T
    if kernel.shape[1]:
        def fgh(te):
            f, g, h = sp.sys_b.value_grad_hess(theta + kernel @ te)
            return f, kernel.T @ g, kernel.T @ h @ kernel

        res = minimize_fgh(fgh, np.zeros(kernel.shape[1]))
        if not res.converged:
            raise ProjectionError("stalled")
        theta = theta + kernel @ res.point
    g_b = sp.sys_b.gradient(theta)
    eta = np.linalg.pinv(mat.T, rcond=1e-10) @ g_b
    residual = float(np.linalg.norm(mat.T @ eta - g_b))
    if residual > 1e-8 * (1.0 + np.linalg.norm(g_b)):
        raise InfeasibleSystemError("second solve")
    return (np.append(eta, 1.0 - eta.sum()),
            sp.sys_b.potential(theta) - sp.last_entropy, residual)


def _random_states(rng, n, dim, rank=None):
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    if rank is not None:
        a[:, :, rank:] = 0.0
    states = a @ a.conj().transpose(0, 2, 1)
    return states / np.trace(states, axis1=1, axis2=2).real[:, None, None]


def _seeded_splits(rng):
    """Classical and cq splits: tall and square (empty kernel) moment
    matrices, with interior and boundary (negative-weight) optima."""
    splits = [split(chan1(0.76).matrix), split(chan1(0.3).matrix)]
    for _ in range(8):
        n_in = int(rng.integers(2, 5))
        splits.append(split(random_channel(rng, n_in, n_in + 3).matrix))
        splits.append(split(random_channel(rng, n_in, n_in).matrix))
        cols = rng.dirichlet(np.full(n_in + 2, 0.3), size=n_in + 1).T
        splits.append(split((cols + 1e-3) / (1.0 + (n_in + 2) * 1e-3)))
    for dim, n_in in ((2, 2), (2, 3), (3, 3), (3, 5)):
        splits.append(cq.split(cq._regularize(_random_states(rng, n_in, dim), 1e-6)))
    splits.append(cq.split(_random_states(rng, 4, 2)))
    splits.append(cq.split(_random_states(rng, 3, 3, rank=1)))
    return splits


def test_split_maximizer_factors_once(rng, monkeypatch):
    calls = {"svd": 0, "pinv": 0, "matrix_rank": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for sp in _seeded_splits(rng):
        calls.update(svd=0, pinv=0, matrix_rank=0)
        rem.split_maximizer(sp)
        assert calls == {"svd": 1, "pinv": 0, "matrix_rank": 0}


def test_split_maximizer_matches_four_factorization_reference(rng):
    # Seen (square, boundary) pairs: every combination must occur.
    seen = set()
    for sp in _seeded_splits(rng):
        weights, value, residual = _four_factorization_split_maximizer(sp)
        sol = rem.split_maximizer(sp)
        assert abs(sol.value - value) <= 1e-12
        assert np.max(np.abs(sol.weights - weights)) <= 1e-12
        assert abs(sol.residual - residual) <= 1e-12
        seen.add((sp.moments.shape[0] == sp.moments.shape[1],
                  bool(np.any(weights < -NEG_TOL))))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_split_maximizer_raises_the_reference_errors(rng):
    base = random_channel(rng, 2, 4).matrix
    states = _random_states(rng, 2, 2)
    # A copy of a column moved by 1.5e-10: the smallest singular value of
    # its moments lies above the relative pinv cut, at or below 1e-10.
    near = split(np.column_stack([base[:, 0], base[:, 0] + [1.5e-10, -1.5e-10, 0.0, 0.0],
                                  base[:, 1]]))
    svals = np.linalg.svd(near.moments, compute_uv=False)
    assert 1e-10 * svals[0] < svals[-1] <= 1e-10
    degenerate = [
        near,
        split(np.hstack([base, base.mean(axis=1, keepdims=True)])),  # mixture column
        split(np.hstack([base, base[:, :1]])),  # exact duplicate
        split(random_channel(rng, 4, 2).matrix),  # wide
        split(random_channel(rng, 3, 1).matrix),  # one output
        cq.split(np.vstack([states, states.mean(axis=0, keepdims=True)])),
        cq.split(_random_states(rng, 5, 2)),  # more states than dim^2
    ]
    for sp in degenerate:
        with pytest.raises(RevemError) as expected:
            _four_factorization_split_maximizer(sp)
        with pytest.raises(RevemError) as got:
            rem.split_maximizer(sp)
        assert type(got.value) is type(expected.value) is DegenerateChannelError


def _geometries_of_every_kind(rng):
    """Capacity geometries of every kind: classical, degraded wiretap with
    two and three inputs, and cq with mixed, pure and rank-deficient states."""
    bob = rng.dirichlet(np.ones(3), size=2).T
    t_map = rng.dirichlet(np.ones(2), size=3).T
    return [
        build_problem(random_channel(rng, 3, 4)),
        build_problem(random_channel(rng, 4, 5)),
        wiretap.build_problem(wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob))),
        _degraded_wiretap_problem(),
        cq.build_problem(cq.CQChannel(_random_states(rng, 3, 2))),
        cq.build_problem(cq.CQChannel(_random_states(rng, 3, 2, rank=1))),
        cq.build_problem(cq.CQChannel(_random_states(rng, 4, 3, rank=2))),
    ]


def test_mixture_side_is_categorical_on_every_kind(rng):
    # Every feature is local to one input, so the mixture potential, the
    # ambient potential restricted to the mixture family, is the categorical
    # potential with per-input offsets that M_system holds.
    kinds = set()
    for geo in _geometries_of_every_kind(rng):
        p = geo.rem
        k, u = p.k, p.family_M.basis
        assert p.M_system.features.shape == (k + 1, k)
        ambient = p.sys.restrict(u[:, :k], u @ np.concatenate([np.zeros(k), p.theta_tail]))
        for _ in range(10):
            theta_a = rng.normal(scale=3.0, size=k)
            f, g, h = p.M_system.value_grad_hess(theta_a)
            f_ref, g_ref, h_ref = ambient.value_grad_hess(theta_a)
            assert abs(f - f_ref) <= 1e-13
            assert np.max(np.abs(g - g_ref)) <= 1e-13
            assert np.max(np.abs(h - h_ref)) <= 1e-13
        if p.split is not None:
            assert np.max(np.abs(p.m_shift + p.split.dual_offset)) <= 1e-13
        uniform = np.full(k + 1, 1.0 / (k + 1))
        assert np.max(np.abs(geo.theta_a_uniform - p.m_inverse(uniform))) <= 1e-11
        kinds.add((type(p.sys).__name__, p.split is not None))
    assert len(kinds) == 3


def test_categorical_inverse_round_trip_and_image(rng):
    p = build_problem(random_channel(rng, 4, 5)).rem
    k = p.k
    sys_a = classical_system(np.eye(k + 1, k))
    for tiny in (1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-3):
        for where in range(k + 1):
            w = rng.dirichlet(np.ones(k + 1))
            w[where] = tiny
            w /= w.sum()
            for theta, system in ((p.m_inverse(w), p.M_system),
                                  (rem.categorical_inverse(w), sys_a)):
                # A tiny last weight makes every coordinate large (about 690
                # at 1e-300), and a coordinate is only known to its spacing.
                bound = 1e-14 if where < k else 1e-14 + 2.0 * np.spacing(np.max(theta))
                assert np.max(np.abs(system.gradient(theta) - w[:k])) <= bound
    # Outside the open simplex, the image of the gradient map.
    for where in range(k + 1):
        for bad in (0.0, -1e-300, -0.2, np.nan):
            w = np.full(k + 1, 1.0 / k)
            w[where] = bad
            with pytest.raises(ImageMembershipError):
                p.m_inverse(w)


def test_no_step_inverts_the_mixture_side_by_newton(rng, monkeypatch):
    # Every stepper inverts the mixture gradient map in closed form, and the
    # objective reads the m-projection each step leaves in the state.  The
    # natural stepper's only gradient-map inversion is then the starting
    # iterate's m-projection, one per solve.
    calls = []
    original = rem.natural_param

    def recorded(sys, *args, **kwargs):
        calls.append(sys)
        return original(sys, *args, **kwargs)

    monkeypatch.setattr(rem, "natural_param", recorded)
    for geo in _geometries_of_every_kind(rng)[::2]:
        p = geo.rem
        start = geo.theta_a_uniform + 0.5 * rng.normal(size=p.k)
        for stepper, kwargs in (("natural", {}), ("mixture", {}), ("eps", {"eps": 1e-12})):
            calls.clear()
            trace = rem.solve_reverse_em(p, start, stepper=stepper, max_iter=6, **kwargs)
            assert trace.iterations >= 1
            assert calls and all(sys is p.E_system for sys in calls)
            if stepper == "natural":
                assert len(calls) == 1


def test_solver_max_iter_bounds():
    prob = bsc_problem(0.2)
    p = prob.rem
    with pytest.raises(ValueError, match="max_iter"):
        rem.solve_reverse_em(p, prob.theta_a_uniform, max_iter=-1)
    with pytest.raises(ValueError, match="max_iter"):
        rem.em_conversion(bsc_problem(0.1).rem, max_iter=-3)
    with pytest.raises(ValueError, match="max_iter"):
        rem.em_minimize(p.sys, p.family_M, p.family_E, np.zeros(p.sys.dim), max_iter=-1)
    # max_iter = 0 evaluates the starting iterate and takes no step.
    start = prob.theta_a_uniform + 0.4
    expected = rem._objective_and_residual(p, start, {})[0]
    for stepper, kwargs in (("natural", {}), ("mixture", {}), ("eps", {"eps": 1e-12})):
        trace = rem.solve_reverse_em(p, start, stepper=stepper, max_iter=0, **kwargs)
        assert trace.iterations == 0 and not trace.converged
        assert trace.objective_values.tolist() == [trace.capacity] == [expected]
        assert np.array_equal(trace.theta_a, start)


def _natural_step_by_chain_rule(p, theta_a, state):
    """The natural step with F_E's slice {dual_matrix theta_c = theta_a}
    written out by the chain rule in theta_c[k:], the split and joint
    closures that ``inverse_step_natural`` replaced by ``restrict``."""
    tail = p.dual_tail
    theta_c = state.get("theta_c")
    tb0 = np.zeros(p.l - p.k) if theta_c is None else theta_c[p.k:]
    if p.split is not None:
        sys_a, sys_b = p.split.sys_a, p.split.sys_b

        def fgh(tb):
            fa, ga, ha = sys_a.value_grad_hess(theta_a - tail @ tb)
            fb, gb, hb = sys_b.value_grad_hess(tb)
            return fa + fb, gb - tail.T @ ga, tail.T @ ha @ tail + hb
    else:
        jac = np.vstack([-tail, np.eye(p.l - p.k)])

        def fgh(tb):
            f, g, h = p.E_system.value_grad_hess(
                np.concatenate([theta_a - tail @ tb, tb]))
            return f, jac.T @ g, jac.T @ h @ jac

    res = minimize_fgh(fgh, tb0)
    assert res.converged
    theta_c = state["theta_c"] = np.concatenate([theta_a - tail @ res.point, res.point])
    if p.split is not None:
        return theta_c[:p.k] - p.m_shift
    eta_a = p.E_system.gradient(theta_c)[:p.k]
    return p.m_inverse(np.append(eta_a, 1.0 - eta_a.sum()))


def test_natural_step_matches_the_chain_rule_reference(rng):
    # Restricting F_E (or F_a on a split) to the slice gives the same step
    # as the hand-written chain rule: ten steps along the reference's path
    # on classical, cq and |Z| = 2 wiretap geometries, and on chan1 with an
    # exact zero (t = 0) and with a boundary optimum (t = 0.76), each step
    # from the same iterate and state.
    geos = [build_problem(random_channel(rng, 3, 4)), build_problem(chan1(0.0)),
            build_problem(chan1(0.76)), cq.build_problem(_random_cq(rng, 3, 2)),
            _geometries_of_every_kind(rng)[2], _degraded_wiretap_problem()]
    assert {geo.rem.split is None for geo in geos} == {True, False}
    for geo in geos:
        p = geo.rem
        theta_a, state = geo.theta_a_uniform, {}
        for _ in range(10):
            got_state = dict(state)
            got = rem.inverse_step_natural(p, theta_a, got_state)
            theta_a = _natural_step_by_chain_rule(p, theta_a, state)
            assert np.max(np.abs(got - theta_a)) <= 1e-13
            assert np.max(np.abs(got_state["theta_c"] - state["theta_c"])) <= 1e-13


def _ambient_divergence(p, theta_a, theta_c):
    return divergence(p.sys, p.m_ambient(theta_a), p.family_E.ambient(theta_c))


def test_objective_is_the_ambient_divergence(rng):
    # D(theta_a || theta_c) from F_M, F_E and the dual matrix equals the
    # ambient divergence for every exponential member theta_c, m-projection
    # or not.  The largest deviations come from a large theta_tail: chan1's
    # exact zeros and rank-deficient cq states, where theta_tail's 1e-12
    # Newton tolerance leaves tail moments of about 1e-12.
    geos = [build_problem(chan1(float(t))) for t in np.round(np.arange(0.0, 0.7601, 0.04), 10)]
    for _ in range(4):
        n_in = int(rng.integers(2, 5))
        geos.append(build_problem(random_channel(rng, n_in, n_in + 2)))
        cols = rng.dirichlet(np.full(n_in + 1, 0.3), size=n_in).T
        geos.append(build_problem(Channel((cols + 1e-3) / (1.0 + (n_in + 1) * 1e-3))))
    geos += _geometries_of_every_kind(rng)
    bob = rng.dirichlet(np.ones(3), size=3).T
    t_map = rng.dirichlet(np.ones(3), size=3).T  # three eavesdropper letters
    geos.append(wiretap.build_problem(
        wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob))))
    for geo in geos:
        p = geo.rem
        for _ in range(3):
            theta_a = geo.theta_a_uniform + rng.normal(size=p.k)
            for theta_c in (rng.normal(size=p.l), None):
                if theta_c is None:  # the m-projection of theta_a
                    state = {}
                    rem._objective_and_residual(p, theta_a, state)
                    theta_c = state["theta_c"]
                got = rem._objective(p, theta_a, theta_c)
                assert abs(got - _ambient_divergence(p, theta_a, theta_c)) <= 1e-10


def test_problem_rejects_nonzero_targets_and_offset():
    p = bsc_problem().rem
    d = p.sys.dim
    shifted_m = MixtureSubfamily(p.family_M.basis, p.k, np.full(d - p.k, 1e-3))
    shifted_e = ExponentialSubfamily(p.family_E.generators, np.full(d, 1e-3))
    for fam_m, fam_e in ((shifted_m, p.family_E), (p.family_M, shifted_e)):
        with pytest.raises(InvalidSpecError):
            rem.ReverseEmProblem(sys=p.sys, family_E=fam_e, family_M=fam_m,
                                 theta_tail=p.theta_tail)


def _em_geometries(rng):
    """Classical, degraded wiretap (|Z| = 2) and cq geometries whose
    auxiliary families intersect, so em_conversion values a point."""
    bob = (rng.dirichlet(np.ones(3), size=2).T + 0.05) / 1.15
    t_map = (rng.dirichlet(np.ones(2), size=3).T + 0.05) / 1.10
    return [build_problem(chan1(0.1)),
            wiretap.build_problem(
                wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob))),
            cq.build_problem(_random_cq(rng, 2, 2))]


def test_no_solve_path_evaluates_the_ambient_system(rng, monkeypatch):
    # After construction the loop, every step and em's valuation read F_M,
    # F_E and the dual matrix only.
    for geo in _em_geometries(rng):
        p = geo.rem
        calls = []
        for name in ("potential", "value_grad", "value_grad_hess"):
            def counted(*args, _name=name, _original=getattr(p.sys, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(p.sys, name, counted)
        start = geo.theta_a_uniform + 0.5 * rng.normal(size=p.k)
        for stepper, kwargs in (("natural", {}), ("mixture", {}), ("eps", {"eps": 1e-12})):
            trace = rem.solve_reverse_em(p, start, stepper=stepper, max_iter=6, **kwargs)
            assert trace.iterations >= 1
        conv = rem.em_conversion(p)
        assert conv.intersection_found
        assert calls == []
        # The wrappers see an ambient evaluation when there is one.
        reference = _ambient_divergence(p, conv.theta_a, conv.theta_c)
        assert calls == ["value_grad", "potential"]
        assert abs(conv.capacity - reference) <= 1e-10
