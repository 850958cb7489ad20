"""Runs the README's library example and checks its CLI method table, so
the documented API cannot go stale."""
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from revem import classical, cq, wiretap
from revem.errors import ConditionViolationError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (library example)", "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 3
    assert max(values) - min(values) < 1e-8


def method_table():
    """The kind x method table of the README's CLI section as
    {(kind, method): cell}."""
    text = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in text.splitlines()
            if line.startswith("| ") and "---" not in line]
    header = [cell.strip() for cell in rows[0]]
    assert header[0] == "kind"
    return {(row[0].strip(), method): cell.strip()
            for row in rows[1:] for method, cell in zip(header[1:], row[1:])}


def test_method_table_covers_every_cli_cell():
    table = method_table()
    assert {kind for kind, _ in table} == {"classical", "wiretap", "cq"}
    assert {method for _, method in table} == {"iterative", "em", "noniterative",
                                               "oracle", "ba"}


PROBLEMS = {
    "classical": lambda: classical.problem(
        classical.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))),
    "wiretap": lambda: wiretap.problem(wiretap.WiretapChannel(np.einsum(
        "zy,yx->xzy", np.array([[0.8, 0.3], [0.2, 0.7]]),
        np.array([[0.9, 0.2], [0.1, 0.8]])))),
    "cq": lambda: cq.problem(cq.CQChannel(np.array(
        [[[0.7, 0.2], [0.2, 0.3]], np.eye(2) / 2]))),
}


@pytest.mark.parametrize("kind, method", sorted(
    cell for cell, text in method_table().items() if text == "unavailable"))
def test_unavailable_cells_raise_before_any_solve(kind, method):
    def solve(*args):
        raise AssertionError("a route ran")

    prob = PROBLEMS[kind]()
    prob = dataclasses.replace(
        prob, objective=solve, geometry=solve, oracle=solve,
        noniterative=prob.noniterative and solve)
    with pytest.raises(ConditionViolationError,
                       match=f"method '{method}' not available for {kind}"):
        classical.capacity(prob, method, 1e-8)
