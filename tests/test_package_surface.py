"""The package holds only what the product or the benchmark runs.

A public function or class of a `fecam` module that nothing in `src/` or
`bench/` refers to is reached only by tests; such helpers live under
`tests/` (`grad_check.py`, `synth_series.py`, `param_pairs.py`). Likewise,
every dataclass field is read somewhere in `src/` or `bench/`. A module
reads no other object's private (underscore) names. Every span the
benchmark's per-layer metrics read is a public function the tracer wraps.
Every random generator the package makes is seeded from its caller.
"""

import ast
import importlib
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


def dataclass_fields(tree):
    """(class, field) for every annotated field of a @dataclass class in the tree."""
    return [(top.name, node.target.id) for top in tree.body
            if isinstance(top, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in top.decorator_list)
            for node in top.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def attribute_reads(tree):
    """Every attribute name loaded in the tree outside a __post_init__, which
    only checks the fields it is handed."""
    checks = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == "__post_init__"
              for node in ast.walk(top)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in checks}


def test_every_dataclass_field_is_read_outside_tests():
    # A field nothing reads is carried, and checked, for tests alone.
    read = set().union(*map(attribute_reads, SOURCES.values()))
    fields = [(f"{module}.{cls}", name) for module in MODULES
              for cls, name in dataclass_fields(SOURCES[PACKAGE / f"{module}.py"])]
    assert fields, "no dataclass fields were found"
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert unread == [], f"{unread} are read only by tests"


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


# Deleted from the package; its bench metrics read 0 until the benchmark drops them.
STALE_SPANS = ["attention.frequency_map"]


def bench_spans():
    """The spans bench/run.py's SELF_METRICS and CALL_METRICS name, read from its syntax tree."""
    spans = set()
    for node in SOURCES[ROOT / "bench" / "run.py"].body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SELF_METRICS", "CALL_METRICS")):
            for value in ast.literal_eval(node.value).values():
                spans.update([value] if isinstance(value, str) else value)
    return spans


def test_every_bench_span_names_a_public_function():
    # The tracer wraps each public function of a fecam module under the span
    # "<module>.<function>", and a span that never opens reads 0, so a
    # renamed or deleted function would silently zero its per-layer metric.
    spans = bench_spans()
    assert spans, "bench/run.py's SELF_METRICS and CALL_METRICS were not found"
    missing = []
    for span in sorted(spans):
        module, name = span.split(".")
        obj = getattr(importlib.import_module(f"fecam.{module}"), name, None)
        # The tracer's own test: public, callable, not a class, defined in that module.
        if (name.startswith("_") or not callable(obj) or isinstance(obj, type)
                or obj.__module__ != f"fecam.{module}"):
            missing.append(span)
    assert missing == STALE_SPANS


def is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("module", MODULES)
def test_every_generator_is_seeded_from_its_caller(module):
    # A generator seeded by a literal is a hidden stream that no --seed
    # reaches, so "same seed, same bytes" would rest on it; each one takes
    # a seed its caller passed, such as args.seed or [seed, 0].
    fixed = [f"line {node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(SOURCES[PACKAGE / f"{module}.py"])
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
             and (not node.args or is_literal(node.args[0]))]
    assert fixed == [], f"fecam.{module} seeds a generator by a literal: {fixed}"
