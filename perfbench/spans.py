"""Outside-in span tracer for revem's public functions.

revem binds its kernels by name (``from .numerics import minimize_fgh`` in
four modules, ``natural_param`` in four more), so replacing a function in its
defining module alone would miss most calls.  ``Tracer.install`` therefore
replaces every public function of the traced modules in *every* ``revem.*``
namespace that holds the same object, and wraps ``value_grad_hess`` and
``potential`` on ``ClassicalSystem`` and ``QuantumSystem``.  ``uninstall``
puts every original back.

A span records its name, start, end and parent; spans stay in memory until
``summary`` aggregates them.  Self time is a span's duration minus the time
covered by its direct children (calls nest, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("numerics", "bregman", "families", "reverse_em", "classical",
           "wiretap", "cq", "cli", "channel_io")

# Methods traced per class; inherited ones (potential) are set on the class.
METHODS = (("bregman", "ClassicalSystem", ("value_grad_hess", "potential")),
           ("bregman", "QuantumSystem", ("value_grad_hess", "potential")))

# Counts taken from a traced function's return value.
RESULT_COUNTS = {
    "numerics.minimize_fgh": (("iters", lambda r: r.iterations),
                              ("nonconverged", lambda r: not r.converged)),
    "reverse_em.solve_reverse_em": (("outer_iters", lambda r: r.iterations),
                                    ("nonconverged", lambda r: not r.converged)),
    "reverse_em.em_conversion": (("iters", lambda r: r.iterations),
                                 ("found", lambda r: r.intersection_found)),
    "reverse_em.non_iterative": (("exists", lambda r: r.exists),),
    "classical.blahut_arimoto": (("iters", lambda r: r.iterations),),
}

OP_SPAN = "bench.op"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        extract = RESULT_COUNTS.get(name, ())
        counts = self.counts
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                self._close(idx)
            for stat, get in extract:
                counts[f"{name}.{stat}"] += int(get(result))
            return result

        return traced

    def op(self, fn, *args):
        """Run ``fn(*args)`` inside a root span that groups one op's calls."""
        idx = self._open(self._name_id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def install(self):
        """Wrap the public functions of every traced module, everywhere bound."""
        mods = {m: importlib.import_module(f"revem.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key.startswith("revem.") and mod is not None]
        for short, mod in mods.items():
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(fn, f"{short}.{attr}")
                for ns in namespaces:
                    for key, value in vars(ns).copy().items():
                        if value is fn:
                            self._patched.append((ns, key, True, fn))
                            setattr(ns, key, traced)
        for short, cls_name, methods in METHODS:
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                own = meth in vars(cls)
                original = getattr(cls, meth)
                self._patched.append((cls, meth, own, vars(cls).get(meth)))
                setattr(cls, meth, self.wrap(original, f"{short}.{cls_name}.{meth}"))

    def uninstall(self):
        for target, key, own, original in reversed(self._patched):
            if own:
                setattr(target, key, original)
            else:
                delattr(target, key)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, errors and returned
        counts, for every wrapped name."""
        n = len(self.start)
        names = np.frombuffer(self.name_of, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) if n else np.zeros(0)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_dur = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k) / 1e9
        excl = np.bincount(names, weights=self_dur, minlength=k) / 1e9

        # Every wrapped name is registered at install time, so each one is
        # reported here even with no calls; a name missing from the result
        # was never wrapped.
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.s"] = float(incl[nid])
            out[f"{name}.self_s"] = float(excl[nid])
            out[f"{name}.errors"] = self.errors[name]
            for stat, _ in RESULT_COUNTS.get(name, ()):
                out[f"{name}.{stat}"] = self.counts[f"{name}.{stat}"]

        # Line-search trials: potential evaluations made directly by the
        # Newton kernel, per accepted Newton iteration.
        kernel = self._ids.get("numerics.minimize_fgh")
        pots = [self._ids[p] for p in ("bregman.ClassicalSystem.potential",
                                       "bregman.QuantumSystem.potential")
                if p in self._ids]
        trials = 0
        if kernel is not None and pots and n:
            child = np.isin(names, pots) & has_parent
            trials = int(np.sum(names[parent[child]] == kernel))
        iters = out.get("numerics.minimize_fgh.iters", 0)
        out["bregman.potential_per_newton_iter"] = trials / iters if iters else 0.0
        return out
