"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads iterative,em]
                                  [--out perfbench/baseline.json]

For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json, and the same for the unscaled times that run.py prints on
its ``raw (unscaled)`` line.  ``--out`` stores every run's result, its raw
figures, its failed ops and its provenance.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = "raw (unscaled): "


def seed_list(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("provenance: "))
    raw = next(json.loads(line[len(RAW):]) for line in lines if line.startswith(RAW))
    failed = [line for line in lines if line.startswith("FAILED ")]
    return {"seed": seed, "provenance": prov, "failed_ops": failed,
            "raw": raw, "result": json.loads(lines[-1])}


def spread(vals):
    """Median, quartiles and (q3 - q1) / median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = one_run(workload, seed, args.seconds)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(run)
        summary, raw_summary = {}, {}
        for m in spec["end_to_end"]:
            summary[m["name"]] = s = spread(
                [r["result"]["metrics"][m["name"]]["value"] for r in runs])
            line = (f"  {m['name']:<12} median {s['median']:.4g} {m['unit']}  "
                    f"spread {s['spread']:.3f}")
            if m["name"] in runs[0]["raw"]:
                raw_summary[m["name"]] = r = spread([run["raw"][m["name"]] for run in runs])
                line += f"  (raw: median {r['median']:.4g}, spread {r['spread']:.3f})"
            print(f"{line}  bound {m['bound']}  "
                  f"{'ok' if s['spread'] < m['bound'] / 3 else 'WIDE'}", flush=True)
        report["workloads"][workload] = {"summary": summary, "raw_summary": raw_summary,
                                         "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
