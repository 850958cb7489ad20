"""Pins the number of settable values in the library.

A settable value is a parameter default of a ``def`` or ``lambda``, or a
dataclass field with a default other than ``field(init=False)``.  Each one
is a knob a caller can turn, so the count only moves on purpose.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "revem"
PINNED = 52


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _is_init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         and not _is_init_false(st.value) for st in node.body)
    return count


def test_counter_sees_every_kind_of_default():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = field(init=False)\n"
        "    w: list = field(default_factory=list)\n"
        "class B:\n"
        "    v: int = 3\n")
    assert settable_values(tree) == 5


def test_settable_value_count_is_pinned():
    per_file = {path.name: settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py"))}
    total = sum(per_file.values())
    assert total == PINNED, (
        f"src/revem has {total} settable values, pinned at {PINNED} "
        f"(per file: {per_file}).  If the change is intended, update PINNED "
        f"here and record the old and new counts in CHANGES.md.")
