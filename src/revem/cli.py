"""Command-line surface: compute capacities, sweep a template parameter,
and validate channel files.

Exit codes: 0 success (including a reported boundary/nonexistence outcome),
2 input or usage error, 3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

import numpy as np

from . import channel_io, classical, cq, wiretap
from .errors import RevemError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOCONV = 3

# Largest number of points a sweep may have; --range is checked against it
# before any point is built.
MAX_SWEEP_POINTS = 100_000

_FMT = "{:.12g}"


def _fmt(value: float) -> str:
    return _FMT.format(float(value))


def _load_classical(args) -> classical.Channel:
    if args.template:
        return channel_io.template(args.template)
    with open(args.infile, "r", encoding="utf-8") as handle:
        return channel_io.parse_classical(handle.read())


def _load(args):
    kind = args.kind
    if kind == "classical":
        return _load_classical(args)
    if args.template:
        raise channel_io.ChannelFormatError(
            "templates are classical channels; use --kind classical")
    with open(args.infile, "r", encoding="utf-8") as handle:
        text = handle.read()
    if kind == "wiretap":
        return channel_io.parse_wiretap(text)
    return channel_io.parse_cq(text)


def _compute(kind: str, method: str, channel, tol: float) -> classical.CapacityOutcome:
    module = {"classical": classical, "wiretap": wiretap, "cq": cq}[kind]
    return classical.capacity(module.problem(channel), method, tol)


def run_capacity(args) -> int:
    try:
        channel = _load(args)
        outcome = _compute(args.kind, args.method, channel, args.tol)
    except (RevemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    nats = outcome.capacity
    print(f"method: {outcome.method}")
    print(f"capacity: {_fmt(nats)} nats ({_fmt(nats / np.log(2))} bits)")
    dist = outcome.input_distribution
    if np.all(np.isfinite(dist)):
        print("input_distribution: " + " ".join(_fmt(v) for v in dist))
    print(f"iterations: {outcome.iterations}")
    print(f"residual: {_fmt(outcome.residual)}")
    if outcome.negative_support:
        labels = ",".join(str(x + 1) for x in outcome.negative_support)
        print(f"negative_support: {{{labels}}}")
    else:
        print("negative_support: (empty)")
    if args.outfile:
        fields = [args.kind, outcome.method, _fmt(nats)]
        fields += [_fmt(v) for v in dist]
        with open(args.outfile, "a", encoding="utf-8") as handle:
            handle.write(",".join(fields) + "\n")
    return EXIT_OK if outcome.converged else EXIT_NOCONV


def _sweep_point(payload):
    template_name, method, value, tol = payload
    try:
        channel = channel_io.template(f"{template_name}:{_fmt(value)}")
        outcome = _compute("classical", method, channel, tol)
        mask = "".join(
            "1" if p > 1e-8 else "0" for p in outcome.input_distribution)
        status = "ok" if outcome.converged else "noconv"
        return (value, outcome.capacity, list(outcome.input_distribution),
                mask, status)
    except RevemError as exc:
        return (value, float("nan"), [], "", f"error:{type(exc).__name__}")


def run_sweep(args) -> int:
    try:
        start, stop, step = (float(part) for part in args.range.split(":"))
    except ValueError:
        print("error: --range must be start:stop:step", file=sys.stderr)
        return EXIT_INPUT
    if not np.all(np.isfinite([start, stop, step])):
        print("error: --range parts must be finite", file=sys.stderr)
        return EXIT_INPUT
    if step <= 0 or start > stop:
        print("error: need step > 0 and start <= stop", file=sys.stderr)
        return EXIT_INPUT
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also catches an infinite span
        print(f"error: --range gives more than {MAX_SWEEP_POINTS} points",
              file=sys.stderr)
        return EXIT_INPUT
    count = int(np.floor(span)) + 1
    values = [start + i * step for i in range(count)]
    payloads = [(args.template, args.method, v, args.tol) for v in values]

    # REVEM_THREADS may ask for fewer workers than CPUs, never for more.
    cpus = os.cpu_count() or 1
    workers_env = os.environ.get("REVEM_THREADS", "")
    workers = (min(int(workers_env), cpus)
               if workers_env.isdigit() and int(workers_env) > 0 else cpus)
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]

    n_inputs = max((len(r[2]) for r in results), default=0)
    header = ([args.param, "capacity_nats"]
              + [f"px_{i + 1}" for i in range(n_inputs)]
              + ["support_mask", "status"])
    lines = [",".join(header)]
    failures = 0
    for value, capacity, dist, mask, status in results:
        row = [_fmt(value), _fmt(capacity)]
        row += [_fmt(v) for v in dist] + [""] * (n_inputs - len(dist))
        row += [mask, status]
        lines.append(",".join(row))
        if status != "ok":
            failures += 1
    text = "\n".join(lines) + "\n"
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if failures == 0 else EXIT_NOCONV


def run_validate(args) -> int:
    try:
        channel = _load(args)
    except (RevemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.kind == "classical":
        mat = channel.matrix
        print(f"kind: classical n1={channel.n_inputs} n2={channel.n_outputs}")
        print("column_sums: " + " ".join(_fmt(s) for s in mat.sum(axis=0)))
        print(f"min_entry: {_fmt(mat.min())}")
        print(f"full_support: {bool(np.all(mat > 0))}")
    elif args.kind == "wiretap":
        print(f"kind: wiretap n1={channel.n_inputs} n2={channel.n_eve} "
              f"n3={channel.n_bob}")
        print("input_sums: " + " ".join(_fmt(s) for s in channel.tensor.sum(axis=(1, 2))))
        feasible, residual = wiretap.check_degraded(channel)
        print(f"degraded: {feasible} (residual {_fmt(residual)})")
        if not feasible:
            print("warning: degradedness check failed; the secrecy formula "
                  "does not apply")
    else:
        print(f"kind: cq n1={channel.n_inputs} dim={channel.dim}")
        traces = [float(np.trace(s).real) for s in channel.states]
        print("traces: " + " ".join(_fmt(t) for t in traces))
        eigs = [float(np.linalg.eigvalsh(s)[0]) for s in channel.states]
        print("min_eigenvalues: " + " ".join(_fmt(e) for e in eigs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revem",
        description="Channel-capacity solvers built on reverse-em geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="compute a single capacity")
    cap.add_argument("--kind", choices=("classical", "wiretap", "cq"),
                     default="classical")
    cap.add_argument("--method",
                     choices=("iterative", "noniterative", "em", "ba", "oracle"),
                     default="noniterative")
    cap.add_argument("--in", dest="infile", help="channel file")
    cap.add_argument("--template", help="built-in channel, e.g. bsc:0.1")
    cap.add_argument("--out", dest="outfile", help="append a CSV result line")
    cap.add_argument("--tol", type=float, default=1e-8)
    cap.set_defaults(func=run_capacity)

    swp = sub.add_parser("sweep", help="sweep a template parameter")
    swp.add_argument("--template", required=True,
                     help="template name (e.g. chan1)")
    swp.add_argument("--param", default="t")
    swp.add_argument("--range", required=True, help="start:stop:step")
    swp.add_argument("--method",
                     choices=("iterative", "noniterative", "em", "ba", "oracle"),
                     default="noniterative")
    swp.add_argument("--out", dest="outfile")
    swp.add_argument("--tol", type=float, default=1e-8)
    swp.set_defaults(func=run_sweep)

    val = sub.add_parser("validate", help="parse and validate a channel file")
    val.add_argument("--kind", choices=("classical", "wiretap", "cq"),
                     default="classical")
    val.add_argument("--in", dest="infile", help="channel file")
    val.add_argument("--template", help="built-in channel")
    val.set_defaults(func=run_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("capacity", "validate"):
        if not args.template and not args.infile:
            print("error: provide --in FILE or --template NAME", file=sys.stderr)
            return EXIT_INPUT
        if args.template and args.infile:
            print("error: --in and --template are mutually exclusive",
                  file=sys.stderr)
            return EXIT_INPUT
    if args.command != "validate" and not (np.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be finite and positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except RevemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
