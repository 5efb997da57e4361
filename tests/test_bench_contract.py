"""The benchmark's use of the package, checked at its smoke sizes.

`bench/workloads.py` drives `fecam.cli.main` and calls the model, layer and
optimizer functions directly. Running its two gated workloads here, as the
benchmark does but with a few steps each, makes a change that drops or
renames something it uses fail the test suite rather than the benchmark.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fecam import cli, data

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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
