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
