"""Every top-level import of a module is used by that module, and every
dataclass field of the package is read somewhere.

No linter ships with the test dependencies, so this parses each module of the
package (the package root, which imports its modules to load them, aside)
and each test module, and lists the names a top-level import binds that the
module never reads; and it lists the fields of the package's dataclasses
whose names no code in the package, its tests or its benchmark reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "spinsplit").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
# the code that may read a field: the package, its tests and its benchmark
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}      # name -> line of the top-level import that binds it
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system.argv, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):     # @dataclass(frozen=True)
        decorator = decorator.func
    name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", "")
    return name == "dataclass"


def unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """Class.field for each annotated field of a dataclass in the defining
    sources whose name the reading sources never read: as an attribute load,
    a keyword argument or a constant getattr name."""
    fields = []
    for tree in map(ast.parse, defining):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = set()
    for tree in map(ast.parse, reading):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_every_dataclass_field_is_read():
    package = sorted((ROOT / "src" / "spinsplit").glob("*.py"))
    assert unread_fields([p.read_text() for p in package],
                         [p.read_text() for p in READERS]) == []


def test_the_check_sees_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 0\n    c: int = 0\n"
              "@dataclass\nclass B:\n    d: float\n    e: float\n"
              "print(A(b=1).a, getattr(B(1, 2), 'd'))\n")
    assert unread_fields([source], [source]) == ["A.c", "B.e"]
