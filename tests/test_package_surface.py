"""The package holds only what the product or the benchmark runs.

A public function or class of a `fecam` module that nothing in `src/` or
`bench/` refers to is reached only by tests; such helpers live under
`tests/` (`grad_check.py`, `synth_series.py`, `param_pairs.py`). A module
reads no other object's private (underscore) names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fecam"
MODULES = ("attention", "cli", "data", "forecaster", "nncore", "spectral")


def public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def references(tree):
    """(name, top-level definition it appears in, or None) for every name and
    attribute read in the tree; import statements are not references."""
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
    return found


SOURCES = {path: ast.parse(path.read_text(), filename=str(path))
           for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_used_outside_tests(module):
    path = PACKAGE / f"{module}.py"
    used = set()
    for source, tree in SOURCES.items():
        for name, owner in references(tree):
            if source != path or owner != name:  # a definition's use of itself does not count
                used.add(name)
    unused = [name for name in public_definitions(SOURCES[path]) if name not in used]
    assert unused == [], f"fecam.{module} defines {unused}, which only tests reach"


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reaches_into_another_objects_private_names(module):
    # A private name is its owner's to change; only self and cls may read it
    # through an attribute, and no module imports one from another.
    path = PACKAGE / f"{module}.py"
    reached = []
    for node in ast.walk(SOURCES[path]):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            reached.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            reached += [f"line {node.lineno}: import {alias.name}"
                        for alias in node.names if private(alias.name)]
    assert reached == [], f"fecam.{module} reaches private names: {reached}"
