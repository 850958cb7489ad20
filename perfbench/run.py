"""revem benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload iterative --seed 11 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run times whole passes over the workload's ops for
about ``--seconds`` seconds, checks every distinct input against its oracle,
and prints the end-to-end metrics.  With ``--trace 1`` it runs one untraced
pass, one traced pass and the checks under the tracer, requires the two
passes to agree bit for bit, and prints the per-layer metrics.  The metric
names and units come from BENCHMARK.json; the last line of standard output
is the JSON result.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
# Passes per run at least, so that each op's median has a majority.
MIN_PASSES = 3
P90_MIN_OPS = 100
DEV_SEED = 11
HELDOUT_SEED = 2403


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEV_SEED,
                    help=f"workload seed; {DEV_SEED} for development, "
                         f"{HELDOUT_SEED} held out for claims")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, for perfbench/tests/smoke.py")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate the inputs, then exit")
    return ap.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"commit": git_commit(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "nproc": os.cpu_count(),
            "REVEM_THREADS": os.environ.get("REVEM_THREADS")}


def run_pass(ops, run_op, tracer=None, cal=None):
    """Run every op once; return outcomes by label and each op's
    (start, end) on the perf_counter clock.  With a calibrator, unit
    samples are taken between ops."""
    outcomes, intervals = {}, []
    for op in ops:
        if cal:
            cal.maybe()
        start = time.perf_counter()
        out = tracer.op(run_op, op) if tracer else run_op(op)
        intervals.append((start, time.perf_counter()))
        outcomes[op.label] = out
    if cal:
        cal.sample()
    return outcomes, intervals


def differing(ref: dict, other: dict) -> list:
    return [label for label in ref if ref[label].key() != other[label].key()]


def digest(ops, outcomes: dict) -> str:
    """Short hash of every op's outcome, bit for bit, in pass order."""
    keys = repr([outcomes[op.label].key() for op in ops])
    return hashlib.sha256(keys.encode()).hexdigest()[:16]


def measure_setup(args, cal) -> list:
    """Times, at reference speed, of fresh processes that import numpy,
    scipy and revem and generate the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    return [cal.timed(subprocess.run, cmd, check=True, timeout=120, cwd=ROOT,
                      stdout=subprocess.DEVNULL)[1:]
            for _ in range(SETUP_PROBES)]


def percentile_ms(latencies, failed_mask, q):
    """Latency percentile in ms, interpolated as by ``statistics.quantiles``
    (inclusive); a failed op counts as infinitely slow, missing every limit."""
    vals = sorted(float("inf") if bad else lat * 1e3
                  for lat, bad in zip(latencies, failed_mask))
    j, delta = divmod(q * (len(vals) - 1), 100)
    # On a cut point exactly, skip the interpolation: inf * 0 would be nan.
    return vals[j] if delta == 0 else (vals[j] * (100 - delta) + vals[j + 1] * delta) / 100


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revem" / "__init__.py").is_file():
        print(f"error: revem sources not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_probe:
        return 0
    spec = json.loads(SPEC.read_text())

    print(f"workload: {wl.name}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  ops per pass: {len(wl.ops)}")
    print("provenance: " + json.dumps(provenance(args.seed)))
    if args.trace:
        return traced_run(args, wl, spec)
    return timed_run(args, wl, spec)


def report_failures(failures, weight: int):
    by_label = {}
    for f in failures:
        by_label.setdefault(f.label, []).append(f.reason)
    for label, reasons in by_label.items():
        print(f"FAILED {label} (x{weight}): {'; '.join(reasons)}")
    return set(by_label)


def emit(spec_metrics, values, correct, attempted, failed):
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def timed_run(args, wl, spec) -> int:
    import workloads
    from calibrate import REFERENCE_S, Calibrator
    cal = Calibrator()
    passes = []
    region = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(wl.ops, workloads.run_op, cal=cal))
        wall = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - region + wall > args.seconds):
            break
    timed_s = time.perf_counter() - region
    reference = passes[0][0]

    (failures, worst, calls), verify_s, verify_raw = cal.timed(
        wl.verify, reference, between=cal.maybe)
    oracle_ms = [1e3 * (end - start) * f for (start, end), f in zip(calls, cal.scale(calls))]
    for outcomes, _ in passes[1:]:
        for label in differing(reference, outcomes):
            failures.append(workloads.Failure(
                label, "outcome differs between passes", True))

    n_pass, n_ops = len(passes), len(wl.ops)
    failed_labels = report_failures(failures, n_pass)
    correct = not any(f.wrong_answer for f in failures)
    mask = [op.label in failed_labels for op in wl.ops]
    passed = n_ops - len(failed_labels)
    # Each op's median over the passes, at reference speed.
    raw = [[end - start for start, end in intervals] for _, intervals in passes]
    scaled = [[r * f for r, f in zip(raws, cal.scale(intervals))]
              for raws, (_, intervals) in zip(raw, passes)]
    lat = [statistics.median(p[i] for p in scaled) for i in range(n_ops)]
    raw_lat = [statistics.median(p[i] for p in raw) for i in range(n_ops)]
    setup = measure_setup(args, cal)

    for kind, err in sorted(worst.items()):
        print(f"check worst |error| vs oracle, {kind}: {err:.2e}")
    print(f"outcomes digest: {digest(wl.ops, reference)}")
    print(f"passes: {n_pass}  timed region: {timed_s:.3f} s  calibration samples: "
          f"{len(cal.took)}, unit median {statistics.median(cal.took) * 1e3:.3f} ms "
          f"(reference {REFERENCE_S * 1e3:g} ms)")
    # The same metrics from unscaled times, for comparing spreads.
    print("raw (unscaled): " + json.dumps({
        "setup_s": statistics.median(r for _, r in setup),
        "ops_per_s": passed / sum(raw_lat),
        "op_ms.p50": percentile_ms(raw_lat, mask, 50),
        "verify_s": verify_raw}))
    attempted, failed = n_ops * n_pass, sum(mask) * n_pass
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    if n_ops >= P90_MIN_OPS:
        print(f"op_ms.p90 = {percentile_ms(lat, mask, 90):.6g} ms (n={n_ops})")
    else:
        print(f"op_ms.p90 not reported: {n_ops} ops < {P90_MIN_OPS}")
    print(f"op_ms.p50 samples: n={n_ops}, each the median of {n_pass} passes")
    print(f"verify_s = {verify_s:.6g} s (oracle phase); verify_ms.p50 = "
          f"{statistics.median(oracle_ms):.6g} ms (n={len(oracle_ms)} oracle calls)")

    values = {
        "setup_s": statistics.median(s for s, _ in setup),
        "ops_per_s": passed / sum(lat),
        "op_ms.p50": percentile_ms(lat, mask, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    emit(spec["end_to_end"], values, correct, attempted, failed)
    return 0


def traced_run(args, wl, spec) -> int:
    import spans
    import workloads
    start = time.perf_counter()
    reference, _ = run_pass(wl.ops, workloads.run_op)
    untraced_s = time.perf_counter() - start

    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced, _ = run_pass(wl.ops, workloads.run_op, tracer)
        traced_s = time.perf_counter() - start
        failures, worst, _ = wl.verify(reference)
    finally:
        tracer.uninstall()

    for label in differing(reference, traced):
        failures.append(workloads.Failure(
            label, "traced outcome differs from untraced", True))
    print(f"outcomes digest: {digest(wl.ops, reference)}")
    failed_labels = report_failures(failures, 1)
    correct = not any(f.wrong_answer for f in failures)
    print(f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s: "
          f"tracing overhead {traced_s - untraced_s:+.3f} s ({traced_s / untraced_s:.2f}x)")
    print(f"spans recorded: {len(tracer.start)}")

    values = tracer.summary()
    values["run.untraced_s"] = untraced_s
    values["run.traced_s"] = traced_s
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if missing:
        print("error: per-layer metrics that the tracer did not register: "
              + ", ".join(missing), file=sys.stderr)
        return 1
    emit(spec["per_layer"], values, correct, len(wl.ops), len(failed_labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
