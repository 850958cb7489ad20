"""Seeded workloads of the revem benchmark: inputs, ops and oracle checks.

An *op* is one capacity request: one route on one channel, including the
geometry build that every call pays.  In ``cli_sweep`` an op is one
``revem sweep`` command, run in-process through ``revem.cli.main``.

Every input comes from ``numpy.random.default_rng(seed)``; the program only
receives the generated channels.  Each workload lists its ops in a fixed
order (one *pass*); the runner repeats whole passes.  Oracles run once per
distinct input after the timed region.

The library is called through module attributes (``classical.build_problem``
and so on) so that the tracer's replacements are seen.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from revem import channel_io, classical, cli, cq, reverse_em, wiretap
from revem.errors import RevemError

# Acceptance tolerances of each route against its oracle.
TOL_CLASSICAL = 1e-6
TOL_WIRETAP = 1e-5
TOL_CQ = 1e-6
TOL_CSV_SAME_ROUTE = 1e-9
# Iterative sweeps ask for the library's default tolerance, at which the
# classical acceptance tolerance holds.  At the CLI default (--tol 1e-8) the
# objective-increment stopping rule ends chan1 t=0.752051 1.76e-6 from the
# oracle: near the support transition the error is about 200 times --tol.
ITERATIVE_SWEEP_TOL = "1e-10"

BA_TOL = 1e-12
EPS = 1e-12

# em_conversion at its default max_iter=20000 takes from 3 ms to 36 s per
# channel (it hits the cap on many two-input channels), which no run of a
# few seconds can sample steadily.  The workload passes this cap through the
# public parameter instead; the polish and the regularity test still decide
# whether the families intersect.  See perfbench/README.md.
EM_MAX_ITER = 100

# The figure-3 sweep is a fixed grid; the seed draws the other channels.
CHAN1_STEP = 0.004
# Blahut-Arimoto stops at BA_TOL or after BA_MAX_ITER iterations; the true
# capacity lies between its value and its value plus its residual gap.
# Near-degenerate channels converge sublinearly: a 2x2 draw that reached a
# 1e-9 gap within 3000 iterations took 120 s to reach 1e-12.  A check is
# inconclusive, and its op fails, if the gap is still above BA_MAX_GAP and
# the op's own input distribution does not narrow it (Checker.close_ba).
BA_MAX_ITER = 20_000
BA_MAX_GAP = 1e-7


@dataclass
class Outcome:
    """What one op returned, reduced to the fields the checks compare."""

    value: Optional[float] = None
    dist: Optional[np.ndarray] = None
    converged: bool = True
    found: Optional[bool] = None
    text: Optional[str] = None
    code: int = 0
    error: Optional[str] = None
    typed_error: bool = True

    def key(self) -> Tuple:
        """Bit-exact identity of the outcome."""
        value = None if self.value is None else np.float64(self.value).tobytes()
        dist = None if self.dist is None else np.ascontiguousarray(self.dist).tobytes()
        return (value, dist, self.converged, self.found, self.text, self.code,
                self.error)


@dataclass
class Op:
    label: str
    fn: Callable[[], Outcome]


@dataclass
class Failure:
    label: str
    reason: str
    wrong_answer: bool  # True: a value or outcome that contradicts the oracle


@dataclass
class Workload:
    name: str
    ops: List[Op]
    verify: Callable[..., Tuple[List[Failure], Dict[str, float], List[Tuple[float, float]]]]


def run_op(op: Op) -> Outcome:
    try:
        return op.fn()
    except RevemError as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an untyped failure is itself a finding
        return Outcome(error=f"{type(exc).__name__}: {exc}", typed_error=False)


# ---------------------------------------------------------------- inputs

def random_channel(rng, n_in: int, n_out: int, min_mass: float = 0.02):
    """Dirichlet columns with a mass floor, as in tests/conftest.py."""
    cols = rng.dirichlet(np.ones(n_out), size=n_in).T
    cols = (cols + min_mass) / (1.0 + n_out * min_mass)
    return classical.Channel(cols)


def random_state(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_cq(rng, n_in: int, dim: int):
    """Full-rank states mixed with 1e-6 of the maximally mixed state."""
    states = np.asarray([random_state(rng, dim) for _ in range(n_in)])
    return cq.CQChannel((1.0 - 1e-6) * states + 1e-6 * np.eye(dim) / dim)


def pure_cq(rng, n_in: int, dim: int):
    """Rank-one states (rank-deficient inputs)."""
    states = []
    for _ in range(n_in):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        states.append(np.outer(v, v.conj()))
    return cq.CQChannel(np.asarray(states))


def orthogonal_cq(rng, dim: int):
    """``dim`` orthogonal pure states in a seeded basis; capacity log(dim)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(a)
    return cq.CQChannel(np.asarray([np.outer(basis[:, i], basis[:, i].conj())
                                    for i in range(dim)]))


def diagonal_cq(rng, n_in: int, dim: int):
    """Commuting states: the cq capacity equals the classical one."""
    probs = rng.dirichlet(np.ones(dim), size=n_in)
    probs = (probs + 0.02) / (1 + dim * 0.02)
    return cq.CQChannel(np.array([np.diag(p).astype(complex) for p in probs]))


def degraded_wiretap(rng):
    """X -> Y -> Z as in acceptance criterion 9 (2 inputs, |Y|=3, |Z|=2)."""
    bob = rng.dirichlet(np.ones(3), size=2).T
    bob = (bob + 0.05) / 1.15
    t_map = rng.dirichlet(np.ones(2), size=3).T
    t_map = (t_map + 0.05) / 1.10
    return wiretap.WiretapChannel(np.einsum("zy,yx->xzy", t_map, bob))


# ---------------------------------------------------------------- ops

def _classical_stepper(ch, stepper: str) -> Outcome:
    prob = classical.build_problem(ch)
    kwargs = {"eps": EPS} if stepper == "eps" else {}
    trace = reverse_em.solve_reverse_em(prob.rem, prob.theta_a_uniform,
                                        stepper=stepper, **kwargs)
    q = prob.decode_input(trace.theta_a)
    return Outcome(value=classical.mutual_information(ch.matrix, q), dist=q,
                   converged=trace.converged)


def _from_capacity(out) -> Outcome:
    return Outcome(value=out.capacity, dist=np.asarray(out.input_distribution),
                   converged=out.converged)


def _em(ch) -> Outcome:
    prob = classical.build_problem(ch)
    conv = reverse_em.em_conversion(prob.rem, max_iter=EM_MAX_ITER)
    if not conv.intersection_found:
        return Outcome(found=False)
    return Outcome(value=conv.capacity, dist=prob.decode_input(conv.theta_a),
                   found=True)


@contextlib.contextmanager
def revem_threads(value: Optional[str]):
    """Set REVEM_THREADS for the block; None unsets it (the default pool)."""
    saved = os.environ.pop("REVEM_THREADS", None)
    if value is not None:
        os.environ["REVEM_THREADS"] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REVEM_THREADS", None)
        else:
            os.environ["REVEM_THREADS"] = saved


def _sweep(argv: List[str], threads: Optional[str]) -> Outcome:
    buf = io.StringIO()
    with revem_threads(threads), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return Outcome(text=buf.getvalue(), code=code)


# ---------------------------------------------------------------- checks

class Checker:
    """Collects failures, the worst |error| per op kind, and the (start,
    end) of every oracle call.  ``between`` runs before each oracle call."""

    def __init__(self, outcomes: Dict[str, Outcome],
                 between: Optional[Callable[[], None]] = None):
        self.outcomes = outcomes
        self.failures: List[Failure] = []
        self.worst: Dict[str, float] = {}
        self.spans: List[Tuple[float, float]] = []
        self.between = between

    def oracle(self, fn, *args, **kwargs):
        if self.between:
            self.between()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((start, time.perf_counter()))
        return result

    def result(self):
        return self.failures, self.worst, self.spans

    def usable(self, label: str) -> Optional[Outcome]:
        """The outcome if it carries a value, else record why not."""
        out = self.outcomes[label]
        if out.error is not None:
            kind = "raises" if out.typed_error else "raises untyped"
            self.failures.append(Failure(label, f"{kind} {out.error}",
                                         not out.typed_error))
            return None
        if not out.converged:
            self.failures.append(Failure(label, "converged=False", False))
            return None
        return out

    def close(self, label: str, kind: str, value: float, ref: float, tol: float,
              where: str = ""):
        err = abs(value - ref)
        self.worst[kind] = max(self.worst.get(kind, 0.0), err)
        if not err <= tol:
            self.failures.append(Failure(
                label, f"{where}|{value:.12g} - oracle {ref:.12g}| = {err:.2e} > {tol:g}",
                True))

    def blahut_arimoto(self, channel):
        return self.oracle(classical.blahut_arimoto, channel, tol=BA_TOL,
                           max_iter=BA_MAX_ITER)

    def close_ba(self, label: str, kind: str, out: Outcome, matrix: np.ndarray,
                 ba, tol: float):
        """Check ``out.value`` against a bracket on the true capacity of the
        channel ``matrix``.  Blahut-Arimoto outcome ``ba`` gives one,
        [capacity, capacity + residual]; the op's own input distribution q
        gives another, [I(q), max_x D(W_x || Wq)], valid for any q.  Their
        intersection must be at most BA_MAX_GAP wide."""
        q = np.clip(out.dist, 0.0, None)
        q = q / q.sum()
        d = divergences(matrix, q)
        lower = max(ba.capacity, float(q @ d))
        upper = min(ba.capacity + ba.residual, float(np.max(d)))
        if upper - lower > BA_MAX_GAP:
            self.failures.append(Failure(
                label, f"oracle inconclusive: capacity bracket {upper - lower:.1e} wide "
                       f"after {ba.iterations} Blahut-Arimoto iterations", False))
            return
        self.close(label, kind, out.value, min(max(out.value, lower), upper), tol)

    def fail(self, label: str, reason: str):
        self.failures.append(Failure(label, reason, True))


# ---------------------------------------------------------------- workloads

EM_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
STEPPERS = ("natural", "mixture", "eps")


def divergences(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W_x || Wq) for every input x of the channel ``matrix`` (columns
    W_x).  q @ d is the mutual information I(q) <= capacity <= max(d)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_entropy = np.where(matrix > 0, matrix * np.log(matrix), 0.0).sum(axis=0)
    return neg_entropy - matrix.T @ np.log(np.maximum(matrix @ q, 1e-300))


def ba_hardness(matrix: np.ndarray, gap_tol: float = 1e-9, cap: int = 1000):
    """Blahut-Arimoto iterations from the uniform input until the capacity
    gap falls below ``gap_tol`` (``cap`` if it does not), and whether the
    optimum lies on the boundary (some input's divergence stays below the
    capacity).  Computed here so that input generation does not run the
    library under test."""
    q = np.full(matrix.shape[1], 1.0 / matrix.shape[1])
    for it in range(cap):
        d = divergences(matrix, q)
        if np.max(d) - q @ d < gap_tol:
            return it, bool(np.min(d) < np.max(d) - 1e-6)
        q = q * np.exp(d - np.max(d))
        q /= q.sum()
    return cap, True


# Reverse-em takes about as many outer iterations as Blahut-Arimoto (both
# crawl near boundary optima), and the mixture stepper fails on boundary
# optima.  With plain Dirichlet draws the cost of a pass and its failure
# count swing by a factor of two to three between seeds, so each channel of
# a pass fills a fixed slot: (n_inputs, n_outputs, lowest and highest
# iterations, boundary optimum).  Draws of that shape repeat until one fits.
ITER_SLOTS = ((2, 3, 30, 45, False), (2, 5, 30, 45, False),
              (2, 4, 60, 90, False), (2, 6, 60, 90, False),
              (2, 3, 60, 90, False), (2, 5, 60, 90, False),
              (3, 4, 80, 120, False), (3, 5, 80, 120, False),
              (3, 4, 80, 120, False), (3, 6, 150, 225, False),
              (3, 4, 80, 120, True), (4, 4, 80, 120, True),
              (3, 5, 120, 180, True), (4, 5, 120, 180, True))


def slotted_channels(rng, slots):
    """One channel per slot, drawn until its hardness and boundary fit."""
    chans = []
    for n_in, n_out, lo, hi, boundary in slots:
        while True:
            ch = random_channel(rng, n_in, n_out)
            hard, bnd = ba_hardness(ch.matrix, cap=hi)
            if lo <= hard < hi and bnd == boundary:
                chans.append(ch)
                break
    return chans


def iterative(seed: int, smoke: bool = False) -> Workload:
    """Reverse-em steppers on classical channels, plus wiretap and cq."""
    rng = np.random.default_rng(seed)
    slots = (ITER_SLOTS[0], ITER_SLOTS[-3]) if smoke else ITER_SLOTS
    chans = {f"classical#{i}[{ch.n_inputs}x{ch.n_outputs}]": ch
             for i, ch in enumerate(slotted_channels(rng, slots))}
    wts = {f"wiretap#{i}": degraded_wiretap(rng) for i in range(1 if smoke else 2)}
    cqs = {"cq#0[qubit]": random_cq(rng, 2, 2)}
    if not smoke:
        cqs["cq#1[qutrit]"] = random_cq(rng, 2, 3)

    ops = [Op(f"{name}/{st}", lambda ch=ch, st=st: _classical_stepper(ch, st))
           for name, ch in chans.items() for st in STEPPERS]
    ops += [Op(name, lambda ch=ch: _from_capacity(wiretap.secrecy_capacity(ch)))
            for name, ch in wts.items()]
    ops += [Op(name, lambda ch=ch: _from_capacity(cq.capacity_cq_iterative(ch)))
            for name, ch in cqs.items()]

    def verify(outcomes, between=None):
        chk = Checker(outcomes, between)
        for name, ch in chans.items():
            ba = chk.blahut_arimoto(ch)
            for st in STEPPERS:
                label = f"{name}/{st}"
                if (out := chk.usable(label)) is not None:
                    chk.close_ba(label, f"classical/{st}", out, ch.matrix, ba, TOL_CLASSICAL)
        for name, ch in wts.items():
            ref = chk.oracle(wiretap.secrecy_oracle, ch, 400)
            if (out := chk.usable(name)) is not None:
                chk.close(name, "wiretap", out.value, ref, TOL_WIRETAP)
        for name, ch in cqs.items():
            ref = chk.oracle(cq.holevo_oracle, ch)
            if (out := chk.usable(name)) is not None:
                chk.close(name, "cq", out.value, ref, TOL_CQ)
        return chk.result()

    return Workload("iterative", ops, verify)


def em(seed: int, smoke: bool = False) -> Workload:
    """em conversion on criterion-5 style channels, interior and boundary alike."""
    rng = np.random.default_rng(seed)
    shapes = EM_SHAPES[:2] if smoke else EM_SHAPES * 4
    chans = {f"classical#{i}[{a}x{b}]": random_channel(rng, a, b)
             for i, (a, b) in enumerate(shapes)}
    ops = [Op(name, lambda ch=ch: _em(ch)) for name, ch in chans.items()]

    def verify(outcomes, between=None):
        chk = Checker(outcomes, between)
        for name, ch in chans.items():
            exists = chk.oracle(lambda: reverse_em.non_iterative(
                classical.build_problem(ch).rem).exists)
            ba = chk.blahut_arimoto(ch)
            if (out := chk.usable(name)) is None:
                continue
            if out.found != exists:
                chk.fail(name, f"intersection_found={out.found} but "
                               f"non_iterative exists={exists}")
            elif out.found:
                chk.close_ba(name, "em", out, ch.matrix, ba, TOL_CLASSICAL)
        return chk.result()

    return Workload("em", ops, verify)


def noniterative(seed: int, smoke: bool = False) -> Workload:
    """capacity_general on the chan1 sweep and wide random channels, plus
    the non-iterative cq route on full-rank, rank-deficient and commuting
    states."""
    rng = np.random.default_rng(seed)
    step = 0.05 if smoke else CHAN1_STEP
    chans = {f"chan1[t={t:.3f}]": channel_io.chan1(float(t))
             for t in np.round(np.arange(0.0, 0.76 + 1e-9, step), 6)}
    shapes = ([(2, 2), (5, 7)] if smoke else
              [(n1, n2) for n1 in range(2, 9)
               for n2 in sorted({n1, (n1 + 11) // 2, 10})] * 2)
    for i, (a, b) in enumerate(shapes):
        chans[f"classical#{i}[{a}x{b}]"] = random_channel(rng, a, b)
    cqs = {"cq#0[qubit]": random_cq(rng, 2, 2),
           "cq#1[qutrit]": random_cq(rng, 2, 3),
           "cq#2[pure qubit]": pure_cq(rng, 2, 2),
           "cq#3[orthogonal qutrit]": orthogonal_cq(rng, 3)}
    diag = {} if smoke else {f"cq#{4 + i}[diagonal qutrit,3in]": diagonal_cq(rng, 3, 3)
                             for i in range(3)}
    if not smoke:
        cqs.update({"cq#7[qubit]": random_cq(rng, 2, 2),
                    "cq#8[pure qutrit]": pure_cq(rng, 2, 3)})
    cqs.update(diag)

    ops = [Op(name, lambda ch=ch: _from_capacity(classical.capacity_general(ch)))
           for name, ch in chans.items()]
    ops += [Op(name, lambda ch=ch: _from_capacity(cq.capacity_cq_noniterative(ch)))
            for name, ch in cqs.items()]

    def verify(outcomes, between=None):
        chk = Checker(outcomes, between)
        for name, ch in chans.items():
            ba = chk.blahut_arimoto(ch)
            if (out := chk.usable(name)) is not None:
                chk.close_ba(name, "classical", out, ch.matrix, ba, TOL_CLASSICAL)
        for name, ch in cqs.items():
            out = chk.usable(name)
            if name in diag:
                probs = np.real(np.diagonal(ch.states, axis1=1, axis2=2))
                ba = chk.blahut_arimoto(classical.Channel(probs.T))
                if out is not None:
                    chk.close_ba(name, "cq", out, probs.T, ba, TOL_CQ)
                continue
            if "orthogonal" in name:
                ref = float(np.log(ch.n_inputs))
            else:
                ref = chk.oracle(cq.holevo_oracle, ch)
            if out is not None:
                chk.close(name, "cq", out.value, ref, TOL_CQ)
        return chk.result()

    return Workload("noniterative", ops, verify)


def cli_sweep(seed: int, smoke: bool = False) -> Workload:
    """``revem sweep`` commands, run serially (REVEM_THREADS=1); the checks
    run each command once more on the default process pool.

    The pool is not timed.  Its speed depends on the machine giving the
    benchmark both CPUs at once, which the single-thread reference unit of
    calibrate.py does not measure.  On a shared 2-vCPU machine, two
    batches of pooled runs (five and ten seeds) made minutes apart gave
    median commands of 177 ms and 243 ms at reference speed."""
    rng = np.random.default_rng(seed)

    def spec(template, method, lo, hi, step):
        if method == "iterative":
            # A fixed grid: a seeded start decided how close a point fell to
            # chan1's support transition, where one point takes over 1 s.
            return ["sweep", "--template", template, "--range", f"{lo}:{hi}:{step}",
                    "--method", method, "--tol", ITERATIVE_SWEEP_TOL]
        start = round(lo + rng.uniform(0.0, step), 6)
        return ["sweep", "--template", template, "--range",
                f"{start}:{hi}:{step}", "--method", method]

    if smoke:
        argvs = [spec("chan1", "noniterative", 0.0, 0.76, 0.1),
                 spec("bsc", "iterative", 0.01, 0.49, 0.16)]
    else:
        # Seven like chan1 commands hold the middle of the latency order
        # (bsc iterative and bsc non-iterative below, chan1 iterative
        # above), so the median op is the middle of one cluster, not the
        # mean of the edges of two.
        argvs = [spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("bsc", "noniterative", 0.001, 0.499, 0.002),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("chan1", "iterative", 0.0, 0.76, 0.04),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("bsc", "iterative", 0.01, 0.49, 0.02),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002),
                 spec("chan1", "noniterative", 0.0, 0.76, 0.002)]
    labels = [f"sweep#{i}[{a[2]} {a[6]} {a[4]}]" for i, a in enumerate(argvs)]
    ops = [Op(label, lambda argv=argv: _sweep(argv, threads="1"))
           for label, argv in zip(labels, argvs)]

    def verify(outcomes, between=None):
        chk = Checker(outcomes, between)
        for label, argv in zip(labels, argvs):
            out = chk.usable(label)
            if out is None:
                continue
            if out.code != cli.EXIT_OK:
                chk.failures.append(Failure(label, f"exit code {out.code}", False))
                continue
            pool = chk.oracle(_sweep, argv, threads=None)
            if pool.text != out.text:
                chk.fail(label, "pool CSV differs from serial CSV")
            template, method = argv[2], argv[6]
            tol = TOL_CSV_SAME_ROUTE if method == "noniterative" else TOL_CLASSICAL
            rows = out.text.strip().splitlines()[1:]
            for row in rows:
                cells = row.split(",")
                ref = chk.oracle(classical.capacity_general,
                                 channel_io.template(f"{template}:{cells[0]}")).capacity
                if cells[-1] != "ok":
                    chk.failures.append(Failure(label, f"point {cells[0]}: {cells[-1]}", False))
                    break
                chk.close(label, f"sweep/{method}", float(cells[1]), ref, tol,
                          where=f"point {cells[0]}: ")
            if not rows:
                chk.fail(label, "empty CSV")
        return chk.result()

    return Workload("cli_sweep", ops, verify)


WORKLOADS = {"iterative": iterative, "em": em, "noniterative": noniterative,
             "cli_sweep": cli_sweep}
