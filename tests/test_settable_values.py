"""Pins the number of settable values in the library.

A settable value is a parameter default of a ``def`` or ``lambda``, or a
dataclass field with a default other than ``field(init=False)``.  Each one
is a knob a caller can turn, so the count only moves on purpose.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "revem"
PINNED = 34


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


def settable_names(tree: ast.AST, prefix: str = "") -> list:
    """``function.parameter`` or ``Class.field`` of every settable value,
    qualified by the enclosing classes and functions; lambdas are
    ``<lambda>``."""
    names = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            names += [f"{name}.{a.arg}" for a in with_default]
            names += settable_names(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            name = prefix + node.name
            if _is_dataclass(node):
                names += [f"{name}.{ast.unparse(st.target)}" for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None
                          and not _is_init_false(st.value)]
            names += settable_names(node, name + ".")
        else:
            names += settable_names(node, prefix)
    return names


def settable_values(tree: ast.AST) -> int:
    return len(settable_names(tree))


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
    assert settable_names(tree) == ["f.b", "f.c", "<lambda>.x", "A.y", "A.w"]


def test_settable_value_count_is_pinned():
    per_file = {path.name: settable_names(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py"))}
    total = sum(len(names) for names in per_file.values())
    listing = "\n".join(f"  {file}: {', '.join(names)}"
                        for file, names in per_file.items() if names)
    assert total == PINNED, (
        f"src/revem has {total} settable values, pinned at {PINNED}:\n{listing}\n"
        f"If the change is intended, update PINNED here and record the old "
        f"and new counts in CHANGES.md.")
