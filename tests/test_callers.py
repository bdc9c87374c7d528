"""Every public function, class and method of `src/pqf` is used by the shipped code.

A name only tests use belongs in `tests/helpers.py`, so this parses the
modules of `src/pqf` (but `__init__.py`) and looks for each
module-level public function or class among the names and attributes in
code under `src/`, `benchmarks/`, `demos/` and `scripts/`, and among the
`module.name` strings by which the benchmark tracer wraps functions. Each
public method or property of a class, and each field of a dataclass, must
be read as an attribute (``obj.name``) in that same code, so that a field
cannot outlive its last reader; the match is by name, so a field passes
when any attribute of that name is read. Each module-level private
function or class must be referenced from code under `src/`, so that
folding one helper into another leaves no dead one behind. A mention in a
docstring or a comment is not a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "demos", "scripts")
EXEMPT = ("__init__.py",)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _caller_nodes(folders=CALLER_DIRS):
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            yield from ast.walk(_parse(path))


def _referenced_names(folders=CALLER_DIRS) -> set:
    names = set()
    for node in _caller_nodes(folders):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted = re.fullmatch(r"\w+\.(\w+)", node.value)
            if dotted:
                names.add(dotted.group(1))
    return names


def _read_attributes() -> set:
    return {
        node.attr
        for node in _caller_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _is_public_definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_modules():
    for path in sorted((ROOT / "src" / "pqf").glob("*.py")):
        if path.name not in EXEMPT:
            yield path.stem, _parse(path)


def _public_definitions():
    for stem, module in _public_modules():
        for node in module.body:
            if _is_public_definition(node):
                yield f"{stem}.{node.name}", node.name


def _public_members():
    """Public methods and properties of every public class, as ``module.Class.name``."""
    for stem, module in _public_modules():
        for cls in module.body:
            if isinstance(cls, ast.ClassDef) and _is_public_definition(cls):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and _is_public_definition(node):
                        yield f"{stem}.{cls.name}.{node.name}", node.name


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _dataclass_fields():
    """Fields of every dataclass, public or private, as ``module.Class.field``."""
    for stem, module in _public_modules():
        for cls in module.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield f"{stem}.{cls.name}.{node.target.id}", node.target.id


def test_every_public_src_name_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    uncalled = [where for where, name in _public_definitions() if name not in referenced]
    assert uncalled == []


def test_every_public_method_of_a_src_class_is_read_outside_the_tests():
    read = _read_attributes()
    unread = [where for where, name in _public_members() if name not in read]
    assert unread == []


def test_every_field_of_a_src_dataclass_is_read_outside_the_tests():
    read = _read_attributes()
    fields = list(_dataclass_fields())
    assert fields
    unread = [where for where, name in fields if name not in read]
    assert unread == []


def test_every_private_src_function_and_class_is_referenced_in_src():
    referenced = _referenced_names(("src",))
    unreferenced = [
        f"{stem}.{node.name}"
        for stem, module in _public_modules()
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unreferenced == []
