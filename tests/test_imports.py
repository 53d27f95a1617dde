import ast
from pathlib import Path

import pytest

import fairaudit

MODULES = sorted(p for p in Path(fairaudit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# imported but not used in the module itself: perfbench/tracer.py patches
# cli.build_dataset to trace the dataset builds cli reaches through harness
KEPT = {("cli", "build_dataset")}


def unused_imports(source: str) -> set[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == {
        "math", "path"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = {name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in KEPT}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


# the one function in src/ that may open a file for writing
OUTPUT_OPENER = ("datagen", "open_output")


def writing_opens(source: str, exempt: str | None = None) -> list[int]:
    """Lines of calls that may open a file for writing, outside the function named exempt.

    A call to anything named `open` counts unless its mode is a string constant
    without "w", "a", "x" or "+" (no mode reads); `os.open`'s flags are never a
    string. A pathlib `write_text` or `write_bytes` call always counts.
    """
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    lines.append(node.lineno)
            elif name in ("write_text", "write_bytes"):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return lines


def test_scan_finds_a_writing_open():
    source = """\
open(p)
open(p, "rb", encoding=None)
open(p, "w")
io.open(p, mode="ab")
open(p, "r+")
open(p, mode)
os.open(p, os.O_WRONLY)
Path(p).write_text("x")
def open_output(p):
    return open(p, "w")
"""
    assert writing_opens(source, "open_output") == [3, 4, 5, 6, 7, 8]
    assert writing_opens(source) == [3, 4, 5, 6, 7, 8, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_output_is_opened_by_the_output_helper(path):
    exempt = OUTPUT_OPENER[1] if path.stem == OUTPUT_OPENER[0] else None
    lines = writing_opens(path.read_text(encoding="utf-8"), exempt)
    assert not lines, (f"{path.name} opens a file for writing on lines {lines}; "
                       f"write outputs through {'.'.join(OUTPUT_OPENER)}")
