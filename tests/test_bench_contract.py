"""The benchmark's use of the package, checked at its smoke sizes.

`bench/workloads.py` drives `fecam.cli.main` and calls the model, layer and
optimizer functions directly. Running its two gated workloads here, as the
benchmark does but with a few steps each, makes a change that drops or
renames something it uses fail the test suite rather than the benchmark.
"""

import ast
import importlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fecam import cli, data

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["train_c7_l96", "attention_etth2"])
def test_gated_workload_runs_and_checks_at_smoke_sizes(workloads, tmp_path, monkeypatch, name):
    monkeypatch.delenv("FECAM_OUT", raising=False)  # it would override the workload's --out
    cls = workloads.WORKLOADS[name]
    workload = cls(workloads.SMOKE[cls], tmp_path, 0)
    workload.setup()
    assert cli.main(workload.argv()) == 0
    assert workload.check_output() == []
    workload.prepare_steps()
    rng = np.random.default_rng([0, 7])
    for _ in range(3):
        assert math.isfinite(workload.step(rng))
    assert workload.final_checks() == []



@pytest.mark.parametrize("name", ["train_c7_l96", "attention_etth2"])
def test_gated_workload_csv_takes_the_fast_read(workloads, tmp_path, name):
    # train_c7_l96 writes a numeric row index and attention_etth2 hourly ISO
    # stamps, both through workloads.write_csv. Sending either file to the
    # validating reader would slow the benchmark while every other test passes.
    cls = workloads.WORKLOADS[name]
    workload = cls(workloads.SMOKE[cls], tmp_path, 0)
    workload.setup()
    series = data._read_clean(workload.csv, 0)
    assert series is not None
    expected = data._read_validating(workload.csv, 0, "reject")
    assert series.channel_names == expected.channel_names
    assert series.observations.tobytes() == expected.observations.tobytes()


def test_the_bench_finds_every_cache_it_must_clear():
    # bench/run.py clears each cache_clear callable in the vars() of the fecam
    # modules it names before every measured invocation, so each starts cold,
    # as in a fresh process. A cache it cannot see would stay warm from one
    # invocation to the next, and run_s would time a warm process.
    run_py = ast.parse((ROOT / "bench" / "run.py").read_text())
    named = [node.value for node in ast.walk(run_py)
             if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "modules"]
    assert len(named) == 1 and isinstance(named[0], ast.Dict)
    stems = {key.value for key in named[0].keys}
    package = ROOT / "src" / "fecam"
    assert stems == {path.stem for path in package.glob("*.py")} - {"__init__"}
    modules = [importlib.import_module(f"fecam.{stem}") for stem in sorted(stems)]
    found = {id(obj) for module in modules for obj in vars(module).values()
             if callable(getattr(obj, "cache_clear", None))}
    cached = [f"{path.stem}.{node.name}" for path in package.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(re.search(r"\b(lru_cache|cache)\b", ast.unparse(d))
                      for d in node.decorator_list)]
    assert {"spectral.dct_matrix", "attention._basis"} <= set(cached)
    for qualified in cached:
        stem, name = qualified.split(".")
        assert id(getattr(importlib.import_module(f"fecam.{stem}"), name)) in found, qualified
