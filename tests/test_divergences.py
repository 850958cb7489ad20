"""Property tests of the divergence vector s_x(q) of each channel kind.

The objectives read it as q @ s(q): ``mutual_information`` and
``secrecy_objective`` through ``classical._divergences``, ``holevo``
through ``cq._divergences``.  The references are the per-input loops those
functions ran before, kept here.  The bracket q @ s(q) <= C <= max_x s_x(q)
holds for every input distribution q, zero weights included.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from revem import classical, cq
from revem.classical import Channel, blahut_arimoto, mutual_information
from revem.cq import CQChannel, EIGEN_FLOOR, holevo, holevo_oracle
from revem.errors import DomainError
from revem.wiretap import WiretapChannel, secrecy_objective


def reference_kl(p, q):
    mask = p > 0
    if np.any(q[mask] <= 0):
        return np.inf
    with np.errstate(over="ignore"):  # an overflowing ratio reads inf
        return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_mutual_information(matrix, q):
    out = matrix @ q
    total = 0.0
    for x in range(matrix.shape[1]):
        if q[x] > 0:
            total += q[x] * reference_kl(matrix[:, x], out)
    return float(total)


def reference_holevo(p, states):
    """sum_j p_j (-S(rho_j) - Tr rho_j log sigma), one eigh of sigma per
    input; rejects weight above 1e-10 outside sigma's support."""
    mix = np.einsum("j,jab->ab", p, states)
    total = 0.0
    for j, rho in enumerate(states):
        if p[j] > 0:
            evals, evecs = np.linalg.eigh(mix)
            keep = evals > max(EIGEN_FLOOR * max(float(evals[-1]), 0.0), 0.0)
            weights = np.einsum("ip,ij,jp->p", evecs.conj(), rho, evecs).real
            if float(np.sum(weights[~keep])) > 1e-10:
                raise DomainError("weight outside the support of the mixture")
            ev = np.linalg.eigvalsh(rho)
            pos = ev > EIGEN_FLOOR * max(ev[-1], 0.0)
            entropy = -float(np.sum(ev[pos] * np.log(ev[pos])))
            total += p[j] * (-entropy - float(np.sum(weights[keep] * np.log(evals[keep]))))
    return float(total)


@st.composite
def distributions(draw, n):
    """Any probability vector of length n; about half its weights zero."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                        min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    return np.array(raw) / sum(raw)


def stochastic_columns(rng, n_rows, n_cols):
    """Random column-stochastic matrix with about a fifth of its entries
    exactly zero."""
    mat = rng.dirichlet(np.full(n_rows, rng.choice([0.3, 1.0])), size=n_cols).T
    mat[rng.random(mat.shape) < 0.2] = 0.0
    mat[rng.integers(n_rows)] += 1e-3
    return mat / mat.sum(axis=0)


def density(rng, dim, rank):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@st.composite
def classical_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n1, n2 = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    return stochastic_columns(rng, n2, n1), draw(distributions(n1))


@st.composite
def cq_cases(draw, n1, full_rank):
    """States of dimension 2 or 3; of random rank (pure ones included)
    unless ``full_rank``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(2, 3))
    ranks = [dim if full_rank else draw(st.integers(1, dim)) for _ in range(n1)]
    states = np.array([density(rng, dim, r) for r in ranks])
    return CQChannel(states), draw(distributions(n1))


@given(classical_cases())
def test_mutual_information_reads_the_divergence_vector(case):
    matrix, q = case
    expect = reference_mutual_information(matrix, q)
    s = classical._divergences(matrix, classical._column_neg_entropies(matrix), q)
    if np.isfinite(expect):
        assert abs(mutual_information(matrix, q) - expect) <= 1e-15
        assert abs(q[q > 0] @ s[q > 0] - expect) <= 1e-15


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(2, 3),
       st.integers(2, 3), st.data())
def test_secrecy_objective_reads_the_divergence_vector(seed, n1, n2, n3, data):
    rng = np.random.default_rng(seed)
    tensor = stochastic_columns(rng, n2 * n3, n1).T.reshape(n1, n2, n3)
    ch = WiretapChannel(tensor)
    q = data.draw(distributions(n1))
    expect = (reference_mutual_information(ch.bob_marginal(), q)
              - reference_mutual_information(ch.eve_marginal(), q))
    if np.isfinite(expect):
        assert abs(secrecy_objective(ch, q) - expect) <= 1e-15


@given(st.integers(2, 4).flatmap(lambda n1: cq_cases(n1, full_rank=False)))
def test_holevo_reads_the_divergence_vector(case):
    ch, p = case
    try:
        expect = reference_holevo(p, ch.states)
    except DomainError:
        return  # the old loop's support rule; see test_cq's eigen-floor test
    assert abs(holevo(p, ch) - expect) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(classical_cases())
def test_classical_bracket(case):
    matrix, q = case
    ba = blahut_arimoto(Channel(matrix), tol=1e-12)
    s = classical._divergences(matrix, classical._column_neg_entropies(matrix), q)
    assert ba.converged
    assert q @ s <= ba.capacity + ba.residual + 1e-14
    assert np.max(s) >= ba.capacity - 1e-14


@settings(max_examples=30, deadline=None)
@given(cq_cases(2, full_rank=True))
def test_cq_bracket(case):
    # Full-rank states: the mixture's numerical support is then the whole
    # space for every p.  Where it misses an input's support, that input's
    # weight outside it is dropped and its s_j is no upper bound.
    ch, p = case
    oracle = holevo_oracle(ch)
    s = cq._divergences(ch.states, cq._state_entropies(ch.states), p)
    assert p @ s <= oracle + 1e-12
    assert np.max(s) >= oracle - 1e-12
