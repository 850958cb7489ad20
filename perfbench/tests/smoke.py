"""Smoke check of the benchmark on shrunken inputs (about 80 s).

    python3 perfbench/tests/smoke.py

It asserts that the tracer registers every per-layer name in BENCHMARK.json,
so that no per-layer figure can be missing and read as 0.  For every
workload in BENCHMARK.json it asserts that
* an untraced run emits exactly the end-to-end metrics, each with its unit,
  and a traced run exactly the per-layer metrics;
* two untraced runs with the same seed give identical op outcomes, and the
  traced run's untraced pass gives the same outcomes again;
* the traced run shows the layer split the workloads were chosen for.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 11

# Predicted calls per workload: 0 means the layer must not run, 1 that it must.
SPLIT = {
    "families.e_projection.calls": {"iterative": 0, "em": 1, "noniterative": 0, "cli_sweep": 0},
    "families.m_projection.calls": {"iterative": 0, "em": 1, "noniterative": 0, "cli_sweep": 0},
    "reverse_em.solve_reverse_em.calls": {"iterative": 1, "em": 0, "noniterative": 0,
                                          "cli_sweep": 1},
    "classical.capacity_special.calls": {"iterative": 0, "em": 0, "noniterative": 1,
                                         "cli_sweep": 1},
    "bregman.QuantumSystem.value_grad_hess.calls": {"iterative": 1, "em": 0,
                                                    "noniterative": 1, "cli_sweep": 0},
    "bregman.QuantumSystem.potential.calls": {"iterative": 1, "em": 0, "noniterative": 1,
                                              "cli_sweep": 0},
    "cli.run_sweep.calls": {"iterative": 0, "em": 0, "noniterative": 0, "cli_sweep": 1},
}


# Per-layer figures that run.py adds to the tracer's.
RUN_METRICS = {"run.untraced_s", "run.traced_s"}


def check_registered(spec: dict):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import spans
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    names = set(tracer.summary()) | RUN_METRICS
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in names]
    assert not missing, f"per-layer metrics the tracer does not register: {missing}"


def run(workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("outcomes digest: "))
    return json.loads(lines[-1]), digest


def check_result(result: dict, expected: list, label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] >= 0, label
    units = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(units), label
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (label, name)
        assert isinstance(metric["value"], (int, float)), (label, name)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_registered(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        first, digest1 = run(workload, 0)
        second, digest2 = run(workload, 0)
        traced, digest3 = run(workload, 1)
        check_result(first, spec["end_to_end"], workload)
        check_result(second, spec["end_to_end"], workload)
        check_result(traced, spec["per_layer"], workload)
        assert digest1 == digest2 == digest3, (workload, digest1, digest2, digest3)
        assert first["failed"] == second["failed"], workload
        for name, expect in SPLIT.items():
            calls = traced["metrics"][name]["value"]
            assert (calls > 0) == bool(expect[workload]), (workload, name, calls)
        print(f"ok {workload}: {first['attempted']} ops, {first['failed']} failed, "
              f"{digest1}")


if __name__ == "__main__":
    main()
