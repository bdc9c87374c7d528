"""Every public function and class of `src/pqf` is called by the shipped code.

A name only tests use belongs in `tests/helpers.py`, so this parses the
modules of `src/pqf` (but `__init__.py`) and looks for each
module-level public function or class among the names and attributes in
code under `src/`, `benchmarks/`, `demos/` and `scripts/`, and among the
`module.name` strings by which the benchmark tracer wraps functions. A
mention in a docstring or a comment is not a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "demos", "scripts")
EXEMPT = ("__init__.py",)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _referenced_names() -> set:
    names = set()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    dotted = re.fullmatch(r"\w+\.(\w+)", node.value)
                    if dotted:
                        names.add(dotted.group(1))
    return names


def _public_definitions():
    for path in sorted((ROOT / "src" / "pqf").glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def test_every_public_src_name_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    uncalled = [where for where, name in _public_definitions() if name not in referenced]
    assert uncalled == []
