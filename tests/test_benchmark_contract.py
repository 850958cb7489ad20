"""The benchmark's contract with the library, on shrunken inputs.

``perfbench/workloads.py`` calls the library by name and keyword, and
``perfbench/spans.py`` wraps its public functions by name.  A renamed
function or a removed keyword shows up there as an untyped error (counted
as a wrong answer) or as a per-layer metric the tracer no longer
registers; these tests catch both from the test suite.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer figures that perfbench/run.py adds to the tracer's.
RUN_METRICS = {"run.untraced_s", "run.traced_s"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_has_no_wrong_answer(name):
    wl = workloads.WORKLOADS[name](11, smoke=True)
    outcomes = {op.label: workloads.run_op(op) for op in wl.ops}
    failures, _, _ = wl.verify(outcomes)
    wrong = [(f.label, f.reason) for f in failures if f.wrong_answer]
    assert not wrong


def test_tracer_registers_every_per_layer_metric():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    names = set(tracer.summary()) | RUN_METRICS
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in names]
    assert not missing
