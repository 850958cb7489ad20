import numpy as np
import pytest

from conftest import chan1, random_channel
from revem import classical
from revem import reverse_em as rem
from revem.bregman import natural_param
from revem.classical import (Channel, blahut_arimoto, build_problem,
                             capacity_general, capacity_iterative,
                             capacity_special, entropy, mutual_information,
                             split, subset_recursion)
from revem.errors import DegenerateChannelError, InvalidChannelError


def bsc(p):
    return Channel(np.array([[1 - p, p], [p, 1 - p]]))


def bsc_capacity(p):
    return np.log(2) + p * np.log(p) + (1 - p) * np.log(1 - p)


def test_channel_validation():
    with pytest.raises(InvalidChannelError):
        Channel(np.array([[0.6, 0.3], [0.3, 0.7]]))
    with pytest.raises(InvalidChannelError):
        Channel(np.array([[1.2, 0.0], [-0.2, 1.0]]))
    with pytest.raises(InvalidChannelError, match="non-finite"):
        Channel(np.array([[np.nan, 0.5], [0.5, 0.5]]))
    ch = Channel(np.eye(3))
    assert ch.n_inputs == ch.n_outputs == 3


def test_information_helpers():
    assert entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(np.log(2))
    w = bsc(0.1).matrix
    assert mutual_information(w, np.array([0.5, 0.5])) == pytest.approx(bsc_capacity(0.1))


def test_blahut_arimoto_analytic_anchors():
    for p in np.arange(0.05, 0.46, 0.05):
        out = blahut_arimoto(bsc(p), tol=1e-12)
        assert abs(out.capacity - bsc_capacity(p)) < 1e-9
    for n in (2, 3, 5):
        assert abs(blahut_arimoto(Channel(np.eye(n))).capacity - np.log(n)) < 1e-10
    useless = Channel(np.tile(np.array([[0.2], [0.8]]), (1, 3)))
    assert abs(blahut_arimoto(useless).capacity) < 1e-12


def reference_blahut_arimoto(channel, tol=1e-10, max_iter=5_000_000):
    """Blahut-Arimoto as written before the divergence vector had one
    function: d_x inline in the loop and again for the final value."""
    mat = channel.matrix
    n1 = channel.n_inputs
    pos = mat > 0
    col_neg_entropy = np.where(pos, mat * np.log(np.where(pos, mat, 1.0)), 0.0).sum(axis=0)
    q = np.full(n1, 1.0 / n1)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        out = mat @ q
        log_out = np.log(np.maximum(out, 1e-300))
        d_x = col_neg_entropy - mat.T @ log_out
        lower = float(q @ d_x)
        gap = float(np.max(d_x) - lower)
        if gap < tol:
            break
        q = q * np.exp(d_x - np.max(d_x))
        q = q / q.sum()
    capacity = float(q @ (col_neg_entropy - mat.T @ np.log(np.maximum(mat @ q, 1e-300))))
    return capacity, q, gap, iterations


def test_blahut_arimoto_bit_identical_and_hoisted(rng, monkeypatch):
    # The chan1 sweep of criterion 1, seeded channels with zero entries,
    # and runs cut by max_iter (whose final value follows an update).
    calls = []
    counted = classical._column_neg_entropies
    monkeypatch.setattr(classical, "_column_neg_entropies",
                        lambda mat: calls.append(1) or counted(mat))
    runs = [(chan1(t), {}) for t in np.round(np.arange(0.0, 0.7601, 0.02), 10)]
    for _ in range(10):
        mat = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)),
                             min_mass=0.0).matrix
        mat[rng.random(mat.shape) < 0.2] = 0.0
        mat[0] += 1e-3
        runs.append((Channel(mat / mat.sum(axis=0)), {}))
    runs += [(chan1(0.3), {"max_iter": 7}), (Channel(np.eye(3)), {"tol": 1e-14})]
    for channel, kwargs in runs:
        calls.clear()
        out = blahut_arimoto(channel, **kwargs)
        assert len(calls) == 1
        capacity, q, gap, iterations = reference_blahut_arimoto(channel, **kwargs)
        assert out.capacity == capacity
        assert np.array_equal(out.input_distribution, q)
        assert out.residual == gap
        assert out.iterations == iterations


def test_dual_functions_patterns(rng):
    # The one dual construction: the orthonormal complement of W_last, which
    # also handles zero entries of W_last (eye(4)), and the entropies.
    for channel in [Channel(np.eye(2)), Channel(np.eye(4)), chan1(0.1),
                    random_channel(rng, 3, 5), random_channel(rng, 4, 4)]:
        mat = channel.matrix
        sp = split(mat)
        f = sp.sys_b.features
        n2 = channel.n_outputs
        assert f.shape == (n2, n2 - 1)
        assert np.max(np.abs(f.T @ f - np.eye(n2 - 1))) < 1e-12
        assert np.max(np.abs(mat[:, -1] @ f)) < 1e-12
        assert np.max(np.abs(sp.moments - mat[:, :-1].T @ f)) < 1e-10
        # f's span has no constants
        aug = np.hstack([f, np.ones((n2, 1))])
        assert np.linalg.matrix_rank(aug, tol=1e-8) == n2
        # the vectorized column entropies, against the per-column loop
        h = np.array([entropy(col) for col in mat.T])
        assert abs(sp.last_entropy - h[-1]) <= 1e-14
        assert np.max(np.abs(sp.dual_offset - (h[-1] - h[:-1]))) <= 1e-14


def test_build_problem_structure(rng):
    channel = chan1(0.1)
    prob = build_problem(channel)
    p = prob.rem
    k = p.k
    # mixture members decode to W x q joints
    for _ in range(5):
        theta_a = 0.6 * rng.normal(size=k)
        joint = p.sys.distribution(p.m_ambient(theta_a)).reshape(4, 4)
        q = joint.sum(axis=1)
        assert np.max(np.abs(joint - channel.matrix.T * q[:, None])) < 1e-9
    # the zero coordinate of E is the uniform product distribution
    uniform = p.sys.distribution(p.family_E.ambient(np.zeros(p.l)))
    assert np.max(np.abs(uniform - 1.0 / 16)) < 1e-14
    # uniform-input coordinate coincides with the entropy-difference offsets
    assert np.max(np.abs(prob.theta_a_uniform - p.split.dual_offset)) < 1e-8
    assert np.max(np.abs(prob.decode_input(prob.theta_a_uniform) - 0.25)) < 1e-10
    # round trip q -> coordinate -> q
    q = np.array([0.4, 0.3, 0.2, 0.1])
    coord = natural_param(p.M_system, q[:-1])
    assert np.max(np.abs(prob.decode_input(coord) - q)) < 1e-10


def test_objective_identity_and_bound(rng):
    channel = chan1(0.1)
    prob = build_problem(channel)
    p = prob.rem
    for _ in range(10):
        theta_a = 0.6 * rng.normal(size=p.k)
        obj, _ = rem._objective_and_residual(p, theta_a, {})
        q = prob.decode_input(theta_a)
        assert abs(obj - mutual_information(channel.matrix, q)) < 1e-9
        # divergence to the uniform-input member never exceeds log n1
        gap = (rem.divergence(p.sys, p.m_ambient(theta_a),
                              p.m_ambient(prob.theta_a_uniform)))
        assert gap <= np.log(4) + 1e-12


def test_capacity_special_anchors():
    for n in (2, 4):
        out = capacity_special(Channel(np.eye(n)))
        assert abs(out.capacity - np.log(n)) < 1e-12
        assert np.max(np.abs(out.input_distribution - 1.0 / n)) < 1e-12
        assert out.negative_support == ()
    for p in (0.05, 0.25, 0.45):
        out = capacity_special(bsc(p))
        assert abs(out.capacity - bsc_capacity(p)) < 1e-12


def test_chan1_negative_support_transition():
    # Verified transition of the printed channel: inputs {1, 2} leave the
    # support together at t* ~ 0.74072; the full-set test is exact before it.
    for t in (0.0, 0.1, 0.18, 0.3, 0.5, 0.74):
        out = capacity_special(chan1(t))
        assert out.negative_support == ()
        ba = blahut_arimoto(chan1(t), tol=1e-11)
        assert abs(out.capacity - ba.capacity) < 1e-6
    out = capacity_special(chan1(0.76))
    assert out.negative_support == (0, 1)


def test_capacity_special_typed_errors(rng):
    base = random_channel(rng, 2, 4).matrix
    dependent = np.hstack([base, base.mean(axis=1, keepdims=True)])
    with pytest.raises(DegenerateChannelError):
        capacity_special(Channel(dependent))
    with pytest.raises(InvalidChannelError):
        capacity_special(random_channel(rng, 4, 2))
    # empty, repeated and out-of-range input subsets
    channel = random_channel(rng, 3, 4)
    for subset in ([], [0, 0], [0, 3], [-1, 1], [0, 1.5]):
        with pytest.raises(InvalidChannelError, match="input subset"):
            capacity_special(channel, subset)


def test_capacity_general_matches_ba(rng):
    for t in (0.3, 0.76):
        cg = capacity_general(chan1(t))
        ba = blahut_arimoto(chan1(t), tol=1e-10)
        assert abs(cg.capacity - ba.capacity) < 1e-6
        assert cg.negative_support == ()
    for _ in range(10):
        channel = random_channel(rng, 4, 6)
        cg = capacity_general(channel)
        ba = blahut_arimoto(channel, tol=1e-10)
        assert abs(cg.capacity - ba.capacity) < 1e-6


def test_capacity_general_edge_cases(rng):
    # exact duplicate columns are merged onto the first occurrence
    base = random_channel(rng, 2, 3)
    mat = np.hstack([base.matrix, base.matrix[:, :1]])
    out = capacity_general(Channel(mat))
    ba = blahut_arimoto(base)
    assert abs(out.capacity - ba.capacity) < 1e-6
    assert out.input_distribution[2] == 0.0
    with pytest.raises(InvalidChannelError):
        capacity_general(random_channel(rng, 4, 2))


def test_capacity_general_merges_near_duplicate_columns(rng):
    # A copy of one column, moved by at most 10^-U(11, 16) within the
    # simplex, is merged into whichever of the two comes first; the result
    # is that of the channel with that merge made explicitly.
    for _ in range(20):
        n_in = int(rng.integers(2, 5))
        base = random_channel(rng, n_in, n_in + int(rng.integers(1, 3))).matrix
        src = int(rng.integers(n_in))
        shift = np.zeros(base.shape[0])
        shift[rng.choice(base.shape[0], 2, replace=False)] = [1.0, -1.0]
        copy = base[:, src] + 10.0 ** -rng.uniform(11, 16) * shift
        pos = int(rng.integers(n_in + 1))
        mat = np.insert(base, pos, copy, axis=1)
        later = max(pos, src + (src >= pos))
        out = capacity_general(Channel(mat))
        merged = capacity_general(Channel(np.delete(mat, later, axis=1)))
        assert out.capacity == merged.capacity
        assert out.input_distribution[later] == 0.0
        assert np.array_equal(np.delete(out.input_distribution, later),
                              merged.input_distribution)


def test_capacity_iterative_anchors():
    out = capacity_iterative(bsc(0.1))
    assert abs(out.capacity - bsc_capacity(0.1)) < 1e-9
    assert np.max(np.abs(out.input_distribution - 0.5)) < 1e-6
    out = capacity_iterative(Channel(np.eye(3)))
    assert abs(out.capacity - np.log(3)) < 1e-9
    ba = blahut_arimoto(chan1(0.0), tol=1e-12)
    out = capacity_iterative(chan1(0.0))
    assert abs(out.capacity - ba.capacity) < 1e-6


def test_subset_recursion_unit():
    from revem.classical import CapacityOutcome
    values = {
        (0, 1, 2, 3): (2.0, (3,)),
        (0, 1, 2): (1.2, (1,)),   # still negative support: chain continues
        (0, 2): (0.95, ()),       # candidate reached through {3} then {1}
        (1, 2): (0.10, ()),
    }
    calls = []

    def fake(sub):
        calls.append(sub)
        cap, neg = values[sub]
        return CapacityOutcome(cap, np.zeros(4), neg, "noniterative")

    out = subset_recursion(4, fake)
    assert out.capacity == 0.95
    assert (1, 2) not in calls  # only negative-support chains are explored


def test_oracle_equivalence_fifty_random(rng):
    worst_gen = 0.0
    worst_it = 0.0
    for _ in range(50):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(n_in, 7))
        channel = random_channel(rng, n_in, n_out)
        ba = blahut_arimoto(channel, tol=1e-11)
        worst_gen = max(worst_gen,
                        abs(capacity_general(channel).capacity - ba.capacity))
        worst_it = max(worst_it,
                       abs(capacity_iterative(channel).capacity - ba.capacity))
    assert worst_gen <= 1e-6
    assert worst_it <= 1e-6
