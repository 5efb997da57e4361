"""End-to-end tests for the command-line interface.

Commands run in-process through main() so exit codes and file outputs can be
asserted directly; one test goes through the installed console script to
check the packaging wiring.
"""

import base64
import csv
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fecam import attention, cli, forecaster, spectral
from fecam.data import (
    RawSeries,
    chronological_split,
    fit_standardizer,
    load_csv,
    make_windows,
)
from fecam.forecaster import DivergenceError, ForecastModel, load_model, save_model
from fecam.nncore import CHECKPOINT_VERSION
from fecam.spectral import low_frequency_signal, truncated_reconstructions

from param_pairs import param_pairs
from synth_series import synth_series


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FECAM_OUT", raising=False)


def write_series_csv(series, path):
    """series as a CSV with a numeric time column and six decimals per cell; returns path."""
    path.write_text("time," + ",".join(series.channel_names) + "\n" + "".join(
        f"{float(i)}," + ",".join(f"{v:.6f}" for v in row) + "\n"
        for i, row in enumerate(series.observations)))
    return path


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    series = synth_series("sinusoid_mix", 400, 3, noise_std=0.1, seed=4)
    return write_series_csv(series, tmp_path_factory.mktemp("data") / "synth.csv")


def run_train(data_csv, out, *extra):
    return cli.main([
        "train", "--data", str(data_csv), "--lookback", "32", "--horizon", "16",
        "--epochs", "2", "--lr", "1e-3", "--seed", "5", "--out", str(out), *extra])


def assert_input_error(argv, out, capsys) -> str:
    """Run argv, expect exit 2 with no traceback and no output directory; return stderr."""
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()
    return err


# --- train -----------------------------------------------------------------------

def test_train_writes_metrics_history_checkpoint_manifest(data_csv, tmp_path):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_csv), "--lookback", "32", "--horizon", "16",
            "--epochs", "2", "--lr", "1e-3", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert np.isfinite(metrics["mse"]) and np.isfinite(metrics["mae"])
    assert metrics["epochs_run"] == 2
    assert metrics["scale"] == "standardized"
    assert metrics["persistence_mse"] > 0
    history = (out / "loss_history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,val_loss" and len(history) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["lookback"] == 32
    assert manifest["seed"] == 5
    assert "numpy" in manifest["versions"] and "fecam" in manifest["versions"]
    assert manifest["command_line"] == argv
    assert json.loads((out / "timing.json").read_text())["wall_time_seconds"] > 0
    assert (out / "model.json").exists() and (out / "dataset.json").exists()


def test_train_missing_file_exits_2_without_outputs(tmp_path):
    out = tmp_path / "never"
    code = cli.main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("rows", [
    ["0,1.0", "1,inf", "2,3.0"],
    ["2020-01-01T00:00,1.0", "2020-01-01T01:00+00:00,2.0", "2020-01-01T02:00,3.0"],
], ids=["infinite_cell", "mixed_timestamps"])
def test_train_bad_cells_exit_2_without_traceback(tmp_path, capsys, rows):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["time,a", *rows]) + "\n")
    out = tmp_path / "never"
    assert cli.main(["train", "--data", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "attention"])
def test_cell_past_the_csv_field_limit_exits_2(data_csv, tmp_path, capsys, command):
    lines = data_csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "0" * csv.field_size_limit() + "1"
    lines[1] = ",".join(cells)
    path = tmp_path / "long_cell.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = [command, "--data", str(path)]
    if command == "attention":
        argv += ["--checkpoint", str(make_checkpoint(tmp_path))]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert "line 2: field larger than field limit" in err


@pytest.mark.parametrize("command", ["train", "attention"])
@pytest.mark.parametrize("where", ["latin1_header", "past_first_chunk"])
def test_csv_that_is_not_utf8_names_its_file(data_csv, tmp_path, capsys, command, where):
    data = data_csv.read_bytes()
    if where == "latin1_header":
        data = data.replace(b"time,", b"caf\xe9,", 1)
    else:
        # Past the decoder's first 8 KiB chunk, from whose start it counts positions.
        at = data.index(b"\n", 9000) + 1
        data = data[:at] + b"\xe9" + data[at:]
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    argv = [command, "--data", str(path)]
    if command == "attention":
        argv += ["--checkpoint", str(make_checkpoint(tmp_path))]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert f"{path}: not UTF-8 text" in err and "position" not in err


@pytest.mark.parametrize("row", [4, 300, 390], ids=["train", "validation", "test"])
def test_huge_finite_cell_is_an_input_error(data_csv, tmp_path, capsys, row):
    # 1e308 is finite, but its square is not: in the training slice it
    # overflows the standardizer's variance, and anywhere in the series the
    # summary's. The slices are 256, 72 and 72 rows. pytest turns any
    # RuntimeWarning into an error, so none may show.
    lines = data_csv.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[2] = "1e308"
    lines[row + 1] = ",".join(cells)
    path = tmp_path / "huge_cell.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["train", "--data", str(path), "--lookback", "32", "--horizon", "16", "--epochs", "1"]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert "channel 1: mean or std overflows" in err


def test_train_bad_config_exits_2(data_csv, tmp_path, capsys):
    code = cli.main(["train", "--data", str(data_csv), "--lookback", "33",
                     "--reduction", "2", "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()
    # The seed is checked before the data is read, so a missing file is not reached.
    argv = ["train", "--data", str(tmp_path / "missing.csv"), "--seed", "-1"]
    assert "seed must be >= 0, got -1" in assert_input_error(argv, tmp_path / "y", capsys)


@pytest.mark.parametrize("split, sizes", [
    ("7:2:2", (256, 72, 72)),
    ("3:1:1", (240, 80, 80)),
    ("conventional", (280, 40, 80)),
    ("5:3:2", (200, 120, 80)),
])
def test_train_split_sizes(data_csv, tmp_path, split, sizes):
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data_csv), "--lookback", "16", "--horizon", "8",
                     "--epochs", "1", "--split", split, "--out", str(out)]) == 0
    dataset = json.loads((out / "dataset.json").read_text())
    assert dataset["split_sizes"] == dict(zip(("train", "val", "test"), sizes))


@pytest.mark.parametrize("split", ["7:2", "7:2:x", "halves", "7:0:2", "nan:1:1", "1:1:inf",
                                   "1e308:1e308:1", "inf:1:1", "1:1e308:1", "a:b:c"])
def test_train_malformed_split_exits_2(data_csv, tmp_path, capsys, split):
    out = tmp_path / "never"
    assert run_train(data_csv, out, "--split", split) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("split", ["7:2", "7:2:x", "a:b:c", "halves"])
def test_train_split_that_is_not_three_numbers_names_the_flag(data_csv, tmp_path, capsys, split):
    argv = ["train", "--data", str(data_csv), "--split", split]
    assert f"split must be a:b:c numbers or a preset ['conventional'], got {split!r}" in (
        assert_input_error(argv, tmp_path / "never", capsys))


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                         ("--lr-decay", "inf"), ("--lr-decay", "nan")])
def test_train_non_finite_rate_names_the_flag(data_csv, tmp_path, capsys, flag, value):
    argv = ["train", "--data", str(data_csv), "--lookback", "32", "--horizon", "16",
            "--epochs", "1", flag, value]
    err = assert_input_error(argv, tmp_path / "never", capsys)
    field = flag[2:].replace("-", "_")
    assert f"{field} must be finite, got {float(value)}" in err


def test_train_does_not_mutate_input(data_csv, tmp_path):
    digest = hashlib.sha256(data_csv.read_bytes()).hexdigest()
    assert run_train(data_csv, tmp_path / "run") == 0
    assert hashlib.sha256(data_csv.read_bytes()).hexdigest() == digest


def test_train_is_deterministic_across_runs(data_csv, tmp_path):
    assert run_train(data_csv, tmp_path / "a") == 0
    assert run_train(data_csv, tmp_path / "b") == 0
    mse_a = json.loads((tmp_path / "a" / "metrics.json").read_text())["mse"]
    mse_b = json.loads((tmp_path / "b" / "metrics.json").read_text())["mse"]
    assert mse_a == mse_b


def test_basis_reads_go_through_one_cache_that_never_evicts(data_csv, tmp_path):
    # train holds two bases, float64 to validate and float32 to step; each
    # float32 step reads its basis twice, for the fold and for the D @ (...)
    # gradient product. Every read is a lookup on spectral.dct_matrix, so the
    # bench's traced call count and hit ratio see them all.
    hits = {}
    for batch in (32, 16):
        spectral.dct_matrix.cache_clear()
        out = tmp_path / f"b{batch}"
        assert run_train(data_csv, out, "--batch-size", str(batch),
                         "--early-stop-patience", "3") == 0
        info = spectral.dct_matrix.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert json.loads((out / "metrics.json").read_text())["epochs_run"] == 2
        hits[batch] = info.hits
    train_rows = json.loads((out / "dataset.json").read_text())["split_sizes"]["train"]
    windows = train_rows - 32 - 16 + 1
    steps = {batch: 2 * -(-windows // batch) for batch in hits}
    assert hits[16] - hits[32] == 2 * (steps[16] - steps[32]) > 0
    spectral.dct_matrix.cache_clear()
    assert cli.main(["attention", "--checkpoint", str(out / "model.json"),
                     "--data", str(data_csv), "--out", str(tmp_path / "att")]) == 0
    assert spectral.dct_matrix.cache_info().misses == 1


def test_train_univariate_channel(data_csv, tmp_path):
    out = tmp_path / "uni"
    assert run_train(data_csv, out, "--channel", "ch1") == 0
    assert json.loads((out / "metrics.json").read_text())["channel"] == "ch1"
    assert json.loads((out / "dataset.json").read_text())["channels"] == 1
    assert cli.main(["train", "--data", str(data_csv), "--channel", "nope",
                     "--out", str(tmp_path / "y")]) == 2


def test_channel_flag_equals_a_file_of_that_channel_alone(data_csv, tmp_path):
    rows = [line.split(",") for line in data_csv.read_text().splitlines()]
    col = rows[0].index("ch1")
    alone = tmp_path / "ch1.csv"
    alone.write_text("".join(f"{row[0]},{row[col]}\n" for row in rows))
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert run_train(data_csv, flag, "--channel", "ch1") == 0
    assert run_train(alone, file) == 0
    for name in ("loss_history.csv", "dataset.json"):
        assert (flag / name).read_bytes() == (file / name).read_bytes()
    arrays = [json.loads((out / "model.json").read_text())["arrays"] for out in (flag, file)]
    assert arrays[0] == arrays[1]
    metrics = [json.loads((out / "metrics.json").read_text()) for out in (flag, file)]
    for key in ("mse", "mae", "step_mse"):
        assert metrics[0][key] == metrics[1][key]


@pytest.mark.parametrize("header, flag, message, names", [
    ("time,a,a,b", ["--channel", "a"], "2 channels named 'a'", ["a", "a", "b"]),
    ("time,a,time,b", ["--date-column", "time"], "2 columns named 'time' in header",
     ["a", "time", "b"]),
], ids=["channel", "date-column"])
def test_flag_naming_a_repeated_column_exits_2(data_csv, tmp_path, capsys, header, flag, message,
                                              names):
    path = tmp_path / "repeated.csv"
    path.write_text(header + "\n" + data_csv.read_text().split("\n", 1)[1])
    argv = ["train", "--data", str(path), "--lookback", "32", "--horizon", "16", "--epochs", "1"]
    assert message in assert_input_error([*argv, *flag], tmp_path / "x", capsys)
    # A file with a repeated name still loads when no flag names it.
    assert cli.main([*argv, "--out", str(tmp_path / "all")]) == 0
    assert json.loads((tmp_path / "all" / "dataset.json").read_text())["channel_names"] == names


def test_train_at_a_long_lookback_beats_persistence_and_reloads(tmp_path):
    # Every other train test runs at L <= 96; here the lookback is 336, as in
    # the paper's long-input settings, with 69 test windows.
    path = write_series_csv(synth_series("sinusoid_mix", 2000, 3, noise_std=0.1),
                            tmp_path / "long.csv")
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(path), "--lookback", "336", "--horizon", "96",
                     "--split", "2:1:1", "--lr", "1e-3", "--epochs", "3", "--seed", "0",
                     "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mse"] < metrics["persistence_mse"]
    model, _ = load_model(out / "model.json")
    splits = chronological_split(load_csv(path), (2, 1, 1), min_slice_len=336 + 96)
    test_ds = make_windows(fit_standardizer(splits[0]).apply(splits[2]), 336, 96)
    assert forecaster.evaluate(model, test_ds).mse == pytest.approx(metrics["mse"], rel=1e-12)


def test_train_ablation_writes_both_arms(data_csv, tmp_path):
    out = tmp_path / "abl"
    assert run_train(data_csv, out, "--ablation") == 0
    fecam_m = json.loads((out / "metrics_fecam.json").read_text())
    plain_m = json.loads((out / "metrics_plain.json").read_text())
    summary = json.loads((out / "ablation.json").read_text())
    expected = (plain_m["mse"] - fecam_m["mse"]) / plain_m["mse"] * 100.0
    assert summary["mse_reduction_pct"] == pytest.approx(expected, rel=1e-12)
    for arm, with_fecam in (("fecam", True), ("plain", False)):
        model, meta = load_model(out / f"model_{arm}.json")
        assert (model.fecam is not None) is with_fecam
        assert meta == {"dataset": "synth.csv", "date_column": 0, "fill_policy": "reject",
                        "split": "7:2:2", "channel": None}
    assert (out / "loss_history_fecam.csv").exists()
    for arm, metrics in (("fecam", fecam_m), ("plain", plain_m)):
        assert metrics["arm"] == arm
        assert metrics["persistence_mae"] > 0


def test_divergence_maps_to_exit_3(data_csv, tmp_path, monkeypatch, capsys):
    def explode(*_args, **_kwargs):
        raise DivergenceError("non-finite loss at epoch 0")

    monkeypatch.setattr(cli, "train", explode)
    monkeypatch.setattr(forecaster, "train", explode)
    for extra in ((), ("--ablation",)):
        out = tmp_path / f"div{len(extra)}"
        assert run_train(data_csv, out, *extra) == 3
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("extra", [(), ("--ablation",)], ids=["fecam", "ablation"])
@pytest.mark.parametrize("lr", ["1e308", "1e200"])
def test_overflowing_learning_rate_is_a_divergence(data_csv, tmp_path, capsys, lr, extra):
    # pytest turns RuntimeWarning into an error here, so a numpy overflow
    # warning anywhere in the run fails the test.
    out = tmp_path / "run"
    assert run_train(data_csv, out, f"--lr={lr}", *extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: overflow encountered in ") and "Traceback" not in err
    assert f"try a lower learning rate (current {float(lr):g})" in err
    assert not out.exists()


def test_large_finite_learning_rate_still_trains(data_csv, tmp_path):
    out = tmp_path / "run"
    assert run_train(data_csv, out, "--lr=1e9") == 0
    assert np.isfinite(json.loads((out / "metrics.json").read_text())["mse"])


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_out_path_that_is_a_file_exits_2(data_csv, tmp_path, monkeypatch, capsys, via_env):
    target = tmp_path / "afile"
    target.write_text("keep me\n")
    if via_env:
        monkeypatch.setenv("FECAM_OUT", str(target))
    assert run_train(data_csv, tmp_path / "from_flag" if via_env else target) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert target.read_text() == "keep me\n"
    assert not (tmp_path / "from_flag").exists()


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "extra-host-arg"])
    argv = ["theorems", "--trials", "5", "--max-len", "16", "--out", str(tmp_path / "a")]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["command_line"] == argv

    argv = ["theorems", "--trials", "5", "--max-len", "16", "--out", str(tmp_path / "b")]
    monkeypatch.setattr(sys, "argv", ["fecam", *argv])
    assert cli.main() == 0
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["command_line"] == argv


def test_repeat_runs_are_byte_identical_except_timing(data_csv, tmp_path):
    ckpt = make_checkpoint(tmp_path)
    commands = {
        "train": ["train", "--data", str(data_csv), "--lookback", "32", "--horizon", "16",
                  "--epochs", "2", "--lr", "1e-3", "--seed", "5", "--ablation"],
        "attention": ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)],
        "gibbs": ["gibbs", "--orders", "10,100", "--curve-points", "32"],
        "compaction": ["compaction", "--signal", "ramp", "--components", "5,10"],
        "theorems": ["theorems", "--trials", "20", "--max-len", "32"],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        digests = []
        for _ in range(2):
            assert cli.main([*argv, "--out", str(out)]) == 0
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in sorted(out.iterdir()) if path.name != "timing.json"})
            timing = json.loads((out / "timing.json").read_text())
            assert timing["wall_time_seconds"] > 0
        assert "manifest.json" in digests[0] and len(digests[0]) > 1
        assert digests[0] == digests[1], name


def test_train_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # The float32 steps' rounding depends on the BLAS kernels, not on how many
    # threads share a product. At L=O=96 and 3 channels the step's GEMMs are
    # large enough that OpenBLAS may split them across threads.
    series = synth_series("sinusoid_mix", 1200, 3, noise_std=0.1, seed=3)
    data = write_series_csv(series, tmp_path / "series.csv")
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "fecam.cli", "train", "--data", str(data), "--lookback", "96",
             "--horizon", "96", "--split", "7:2:2", "--epochs", "2", "--lr", "1e-3", "--seed", "3",
             "--ablation", "--out", str(out)], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for pattern in ("model_*.json", "metrics_*.json")
                        for path in sorted(out.glob(pattern))})
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert versions["blas"] and versions["blas_version"]


def test_env_var_overrides_out_flag(data_csv, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FECAM_OUT", str(env_dir))
    assert run_train(data_csv, tmp_path / "from_flag") == 0
    assert (env_dir / "metrics.json").exists()
    assert not (tmp_path / "from_flag").exists()


def test_manifest_names_the_directory_fecam_out_chose(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FECAM_OUT", "envout")
    assert cli.main(["theorems", "--trials", "5", "--max-len", "16", "--out", "flagout"]) == 0
    manifest = json.loads((tmp_path / "envout" / "manifest.json").read_text())
    assert manifest["config"]["out"] == "envout"
    assert not (tmp_path / "flagout").exists()


# --- gibbs -----------------------------------------------------------------------

def test_gibbs_writes_sweep_and_curves(tmp_path):
    out = tmp_path / "gibbs"
    assert cli.main(["gibbs", "--orders", "10,100", "--curve-points", "64",
                     "--out", str(out)]) == 0
    raw = (out / "gibbs.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "N,overshoot,target"
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "100"]
    target = float(lines[1].split(",")[2])
    assert target == pytest.approx(2 * 0.089489872236, rel=1e-8)
    for order in (10, 100):
        curve = (out / f"curve_n{order}.csv").read_text().strip().splitlines()
        assert curve[0] == "x,value" and len(curve) == 65
    payload = json.loads((out / "gibbs.json").read_text())
    assert payload["jump"] == pytest.approx(2.0)


def test_gibbs_pulse_wave_runs(tmp_path):
    out = tmp_path / "pulse"
    assert cli.main(["gibbs", "--wave", "pulse", "--orders", "50",
                     "--curve-points", "32", "--out", str(out)]) == 0
    assert (out / "gibbs.csv").exists()


def test_gibbs_pulse_amplitude_scales_overshoots_and_targets(tmp_path):
    rows = {}
    for amplitude in ("1", "5"):
        out = tmp_path / f"pulse{amplitude}"
        assert cli.main(["gibbs", "--wave", "pulse", "--amplitude", amplitude,
                         "--orders", "10,100,1000", "--curve-points", "16",
                         "--out", str(out)]) == 0
        payload = json.loads((out / "gibbs.json").read_text())
        assert payload["jump"] == float(amplitude)
        rows[amplitude] = payload["rows"]
    for one, five in zip(rows["1"], rows["5"], strict=True):
        assert five["order"] == one["order"]
        assert five["overshoot"] == pytest.approx(5 * one["overshoot"], rel=1e-12)
        assert five["target"] == pytest.approx(5 * one["target"], rel=1e-15)


def test_gibbs_refuses_jumpless_wave(tmp_path, capsys):
    # A sine wave has no jump to overshoot, so argparse does not offer it.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["gibbs", "--wave", "sine", "--out", str(tmp_path / "s")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_gibbs_rejects_bad_orders(tmp_path):
    assert cli.main(["gibbs", "--orders", "abc", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["gibbs", "--orders", "0,5", "--out", str(tmp_path / "y")]) == 2


def test_gibbs_zero_amplitude_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "flat"
    assert cli.main(["gibbs", "--amplitude", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "zero jump" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf", "1e308"])
def test_gibbs_non_finite_or_overflowing_amplitude_exits_2(tmp_path, capsys, amplitude):
    err = assert_input_error(["gibbs", f"--amplitude={amplitude}"], tmp_path / "x", capsys)
    assert "amplitude" in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_gibbs_curve_points_below_1_exits_2(tmp_path, capsys, points):
    err = assert_input_error(["gibbs", "--curve-points", points], tmp_path / "x", capsys)
    assert f"curve-points must be >= 1, got {points}" in err


def test_gibbs_json_is_strict(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = tmp_path / "gibbs"
    assert cli.main(["gibbs", "--out", str(out)]) == 0
    payload = json.loads((out / "gibbs.json").read_text(), parse_constant=reject)
    assert len(payload["rows"]) == 4


# --- compaction --------------------------------------------------------------------

def test_compaction_fixture_table_and_reconstructions(tmp_path):
    out = tmp_path / "comp"
    assert cli.main(["compaction", "--out", str(out)]) == 0
    raw = (out / "compaction.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "n,dct_err,dft_err"
    signal = low_frequency_signal()
    rows = [(n, np.linalg.norm(dct - signal), np.linalg.norm(dft - signal))
            for n, dct, dft in truncated_reconstructions(signal, [5, 10, 15])]
    assert len(lines) == 1 + len(rows)
    for row, line in zip(rows, lines[1:]):
        n, dct_err, dft_err = line.split(",")
        assert float(dct_err) < float(dft_err)
        assert int(n) == row[0]
        assert float(dct_err) == pytest.approx(row[1], rel=1e-8)
        assert float(dft_err) == pytest.approx(row[2], rel=1e-8)
    recon = (out / "recon_dct_n5.csv").read_text().strip().splitlines()
    assert recon[0] == "index,original,reconstruction" and len(recon) == 17
    assert (out / "recon_dft_n15.csv").exists()


def test_compaction_full_count_shows_exact_reconstruction(tmp_path):
    out = tmp_path / "comp16"
    assert cli.main(["compaction", "--components", "16", "--out", str(out)]) == 0
    row = (out / "compaction.csv").read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) < 1e-9 and float(row[2]) < 1e-9


def test_compaction_ramp_writes_boundary_report(tmp_path):
    out = tmp_path / "ramp"
    assert cli.main(["compaction", "--signal", "ramp", "--components", "5,10",
                     "--out", str(out)]) == 0
    lines = (out / "boundary.csv").read_text().strip().splitlines()
    assert lines[0] == "n,dct_err,dft_err"
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10"]
    for line in lines[1:]:
        _, dct_err, dft_err = line.split(",")
        assert float(dct_err) < float(dft_err)


def test_compaction_transforms_the_signal_once_per_kind(tmp_path, monkeypatch):
    calls = {"dct_forward": 0, "dft_forward": 0}
    for name in calls:
        real = getattr(spectral, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    assert cli.main(["compaction", "--signal", "ramp", "--length", "64",
                     "--components", "5,10,50", "--out", str(tmp_path / "ramp")]) == 0
    assert calls == {"dct_forward": 1, "dft_forward": 1}


def test_compaction_rejects_out_of_range_components(tmp_path):
    assert cli.main(["compaction", "--components", "17",
                     "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv", [["--length", "0"], ["--length", "-3"],
                                  ["--signal", "ramp", "--length", "0"]])
def test_compaction_non_positive_length_exits_2(tmp_path, capsys, argv):
    err = assert_input_error(["compaction", *argv], tmp_path / "x", capsys)
    assert "length must be >= 1" in err


# --- attention -----------------------------------------------------------------------

def make_checkpoint(tmp_path, zero=False, with_fecam=True, meta=None, name="ckpt.json"):
    model = ForecastModel(32, 16, with_fecam=with_fecam, seed=3)
    if zero and with_fecam:
        for value, _ in param_pairs(model.fecam.excite1, model.fecam.excite2):
            value[:] = 0.0
    path = tmp_path / name
    save_model(path, model, meta)
    return path


def test_attention_untrained_zero_checkpoint_is_uniform(data_csv, tmp_path):
    ckpt = make_checkpoint(tmp_path, zero=True)
    out = tmp_path / "att"
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out / "attention.csv", delimiter=",", skiprows=1)
    assert rows.shape == (32, 3)
    np.testing.assert_array_equal(rows, np.full((32, 3), 0.5))


def test_attention_runs_are_byte_identical(data_csv, tmp_path):
    ckpt = make_checkpoint(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["attention", "--checkpoint", str(ckpt),
                         "--data", str(data_csv), "--out", str(out)]) == 0
    assert (out_a / "attention.csv").read_bytes() == (out_b / "attention.csv").read_bytes()


def test_attention_failure_leaves_no_output_directory(data_csv, tmp_path, monkeypatch, capsys):
    # load_csv refuses non-finite cells, so the window is poisoned after it:
    # the attention pass's own per-batch check must catch it.
    def poisoned_windows(observations, lookback, horizon):
        observations = observations.copy()
        observations[0, 1] = np.nan
        return make_windows(observations, lookback, horizon)

    ckpt = make_checkpoint(tmp_path)
    monkeypatch.setattr(cli, "make_windows", poisoned_windows)
    out = tmp_path / "x"
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not out.exists()


def test_attention_rejects_plain_checkpoint(data_csv, tmp_path):
    ckpt = make_checkpoint(tmp_path, with_fecam=False)
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(tmp_path / "x")]) == 2


def test_attention_rejects_non_finite_checkpoint(data_csv, tmp_path, capsys):
    ckpt = make_checkpoint(tmp_path)
    payload = edited(json.loads(ckpt.read_text()), ("arrays", "projection.weight", "data"),
                     with_bits(QUIET_NAN))
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "x"
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "projection.weight" in err and "Traceback" not in err
    assert not out.exists()


def test_attention_checkpoint_that_is_a_directory_exits_2(data_csv, tmp_path, capsys):
    argv = ["attention", "--checkpoint", str(tmp_path), "--data", str(data_csv)]
    assert_input_error(argv, tmp_path / "x", capsys)


@pytest.mark.parametrize("broken", ["nested_past_recursion_limit", "utf16"])
def test_attention_checkpoint_that_cannot_be_parsed_names_its_file(data_csv, tmp_path, capsys,
                                                                    broken):
    ckpt = make_checkpoint(tmp_path)
    if broken == "utf16":
        ckpt.write_text(ckpt.read_text(), encoding="utf-16")
    else:
        ckpt.write_text("[" * 200_000)
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
    assert str(ckpt) in assert_input_error(argv, tmp_path / "x", capsys)


def test_attention_rejects_too_short_data(tmp_path):
    ckpt = make_checkpoint(tmp_path)
    short = tmp_path / "short.csv"
    short.write_text("time,a\n" + "\n".join(f"{t},{t * 0.5}" for t in range(30)) + "\n")
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(short),
                     "--out", str(tmp_path / "x")]) == 2


def test_streamed_attention_mean_matches_concatenated_mean(tmp_path, monkeypatch):
    # 1,400 rows split 1:1:2 leave 700 test rows: 653 windows of 32 + 16, so
    # ten batches of 64 and one of 13.
    path = write_series_csv(synth_series("sinusoid_mix", 1400, 3, noise_std=0.1, seed=8),
                            tmp_path / "long.csv")
    ckpt = make_checkpoint(tmp_path, meta={"split": "1:1:2"})
    batches, written = [], []
    excite, export = attention._excite, cli.export_attention

    def spy_excite(rows, *args):
        batches.append(len(rows) // 3)  # three channels per window
        return excite(rows, *args)

    def spy_export(mean_att, csv_path):
        written.append(mean_att.T)
        export(mean_att, csv_path)

    monkeypatch.setattr(attention, "_excite", spy_excite)
    monkeypatch.setattr(cli, "export_attention", spy_export)
    out = tmp_path / "att"
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(path),
                     "--out", str(out)]) == 0
    assert forecaster.INFERENCE_BATCH == 64 and batches == [64] * 10 + [13]

    # The reference is the concatenate-then-mean over the same batches.
    model, _ = forecaster.load_model(ckpt)
    loaded = load_csv(path)
    splits = chronological_split(loaded, (1, 1, 2), min_slice_len=48)
    test_ds = make_windows(fit_standardizer(splits[0]).apply(splits[2]), 32, 16)
    maps = [attention.fecam_forward(test_ds.inputs[start:start + 64], model.fecam)[1]
            for start in range(0, test_ds.n_windows, 64)]
    reference = np.concatenate(maps, axis=0).mean(axis=0).T
    assert float(np.max(np.abs(written[0] - reference))) <= 1e-12
    # Chunking changes only rounding: the mean over one whole batch agrees too.
    whole = attention.fecam_forward(test_ds.inputs, model.fecam)[1].mean(axis=0).T
    assert float(np.max(np.abs(written[0] - whole))) <= 1e-12
    rows = np.loadtxt(out / "attention.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows, reference, rtol=1e-8)


DEFAULT_SETTINGS = {"date_column": 0, "fill_policy": "reject", "split": "7:2:2", "channel": None}


def reference_attention(ckpt, data, path, date_column, fill_policy, split, channel) -> bytes:
    """attention.csv's bytes for these data settings, built without the command."""
    model, _ = load_model(ckpt)
    series = load_csv(data, date_column=date_column, fill_policy=fill_policy)
    if channel is not None:
        idx = series.channel_names.index(channel)
        series = RawSeries(series.observations[:, idx:idx + 1], [channel])
    ratios = [float(r) for r in split.split(":")]
    splits = chronological_split(series, ratios, min_slice_len=model.lookback + model.horizon)
    test_ds = make_windows(fit_standardizer(splits[0]).apply(splits[2]),
                           model.lookback, model.horizon)
    attention.export_attention(attention.mean_attention(test_ds.inputs, model.fecam), path)
    return path.read_bytes()


@pytest.mark.parametrize("settings", [{}, {"channel": "ch1", "split": "3:1:1"},
                                      {"fill_policy": "ffill"}],
                         ids=["meta-none", "channel-split", "ffill-blank-cell"])
def test_attention_prepares_windows_as_the_checkpoint_records(data_csv, tmp_path, settings):
    data = data_csv
    if settings:
        if "fill_policy" in settings:  # a blank cell, which the default policy refuses
            lines = data_csv.read_text().splitlines()
            lines[60] = lines[60].rsplit(",", 1)[0] + ","
            data = tmp_path / "blank.csv"
            data.write_text("\n".join(lines) + "\n")
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
        assert run_train(data, tmp_path / "run", *flags) == 0
        ckpt = tmp_path / "run" / "model.json"
    else:
        ckpt = make_checkpoint(tmp_path, meta=None)
    out = tmp_path / "att"
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 0

    used = {**DEFAULT_SETTINGS, **settings}
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert {key: config[key] for key in used} == used
    expected = reference_attention(ckpt, data, tmp_path / "reference.csv", **used)
    assert (out / "attention.csv").read_bytes() == expected
    header = (out / "attention.csv").read_text().splitlines()[0]
    assert header == ("channel_0" if "channel" in settings else "channel_0,channel_1,channel_2")


def test_attention_takes_no_data_flags(data_csv, tmp_path, capsys):
    ckpt = make_checkpoint(tmp_path)
    for flag in ("--date-column=0", "--fill-policy=reject", "--split=3:1:1", "--channel=ch1"):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv), flag,
                      "--out", str(out)])
        assert excinfo.value.code == 2 and not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["attention", "--help"])
    assert excinfo.value.code == 0
    options = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--checkpoint", "--data", "--out"}


@pytest.mark.parametrize("key, value", [
    ("date_column", True), ("date_column", None), ("date_column", 1.0), ("fill_policy", None),
    ("split", [3, 1, 1]), ("split", 7), ("channel", 1), ("channel", ["ch1"]),
])
def test_attention_wrong_typed_meta_setting_exits_2(data_csv, tmp_path, capsys, key, value):
    ckpt = make_checkpoint(tmp_path, meta={key: value})
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert f"{ckpt}: meta {key!r}" in err


def test_attention_on_a_csv_without_the_checkpoint_channel_exits_2(data_csv, tmp_path, capsys):
    argv = ["attention", "--checkpoint", str(make_checkpoint(tmp_path, meta={"channel": "ch9"})),
            "--data", str(data_csv)]
    assert "no channels named 'ch9'" in assert_input_error(argv, tmp_path / "x", capsys)


@pytest.mark.parametrize("key, value, message", [
    ("date_column", 4000, "timestamp column index 4000 out of range"),
    ("date_column", "stamp", "no columns named 'stamp' in header"),
    ("split", "halves", "split must be a:b:c numbers or a preset"),
    ("split", "0:1:1", "need three positive finite ratios, got [0.0, 1.0, 1.0]"),
    ("split", "1e308:1:1", "ratios [1e+308, 1.0, 1.0] are too large"),
    ("fill_policy", "zero", "fill_policy must be one of"),
    ("channel", "ch9", "no channels named 'ch9'"),
])
def test_attention_unusable_meta_setting_names_the_checkpoint_and_key(data_csv, tmp_path, capsys,
                                                                        key, value, message):
    # attention has no data flags, so a message that reads as a flag's would mislead.
    ckpt = make_checkpoint(tmp_path, meta={key: value})
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert f"error: {ckpt}: meta {key!r}: {message}" in err


def test_attention_csv_fault_is_not_blamed_on_the_checkpoint(data_csv, tmp_path, capsys):
    lines = data_csv.read_text().splitlines()
    lines[60] = lines[60].rsplit(",", 1)[0] + ",abc"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    ckpt = make_checkpoint(tmp_path, meta={"split": "3:1:1"})
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(bad)]
    err = assert_input_error(argv, tmp_path / "x", capsys)
    assert err == "error: line 61: unparseable value 'abc' in column 'ch2'\n"


def test_only_train_casts_its_training_windows_to_float32(data_csv, tmp_path, monkeypatch):
    # train's steps run in float32, so it takes its training split in float32,
    # cast once; attention reads only the test split and casts nothing.
    prepare, prepared = cli._prepared_windows, []

    def spy(*args):
        prepared.append(prepare(*args))
        return prepared[-1]

    monkeypatch.setattr(cli, "_prepared_windows", spy)
    assert run_train(data_csv, tmp_path / "run") == 0
    assert cli.main(["attention", "--checkpoint", str(tmp_path / "run" / "model.json"),
                     "--data", str(data_csv), "--out", str(tmp_path / "att")]) == 0
    (_, splits, windows), (_, _, att_windows) = prepared
    assert [w.inputs.dtype for w in windows] == [np.float32, np.float64, np.float64]
    assert [w.inputs.dtype for w in att_windows] == [np.float64] * 3
    reference = make_windows(fit_standardizer(splits[0]).apply(splits[0]), 32, 16)
    assert np.array_equal(windows[0].inputs, reference.inputs.astype(np.float32))
    assert windows[0].inputs[[3, 1]].flags.c_contiguous  # channel-major, as float64 was


DROP = object()


def edited(payload, keys, value):
    """payload with the entry at the key path set to value (DROP deletes it).

    A callable value is applied to the entry it replaces.
    """
    if not keys:
        return value
    target = payload
    for key in keys[:-1]:
        target = target[key]
    if value is DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
    return payload


def b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unb64(data: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), dtype="<f8")


QUIET_NAN, NEGATIVE_NAN = 0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000
SIGNALLING_NAN = 0x7FF0_0000_0000_0001
POS_INF, NEG_INF = 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000


def with_bits(bits: int):
    """Edit that sets element 3 of an array's data to the float64 with these bits."""
    def edit(data: str) -> str:
        values = unb64(data).copy()
        values.view("<u8")[3] = bits
        return b64(values)
    return edit


# Edits of an array's base64 'data', each applied to the valid string it
# replaces, with the message loading must then give.
NOT_FINITE = "array 'projection.bias' contains non-finite values"
LENGTH = "array 'projection.bias': data length does not match shape"
NOT_BASE64 = "array 'projection.bias': data is not valid base64"
DATA_EDITS = {
    "data-bad-char": (lambda data: "*" + data[1:], NOT_BASE64),
    "data-no-pad": (lambda data: data.rstrip("="), LENGTH),
    "data-newline": (lambda data: data[:40] + "\n" + data[41:], NOT_BASE64),
    "data-8-bytes-short": (lambda data: b64(unb64(data)[:-1]), LENGTH),
    "data-v1-list": (lambda data: unb64(data).tolist(), "and a base64 string 'data'"),
    "data-nan": (with_bits(QUIET_NAN), NOT_FINITE),
    "data-negative-nan": (with_bits(NEGATIVE_NAN), NOT_FINITE),
    "data-signalling-nan": (with_bits(SIGNALLING_NAN), NOT_FINITE),
    "data-inf": (with_bits(POS_INF), NOT_FINITE),
    "data-negative-inf": (with_bits(NEG_INF), NOT_FINITE),
}


BIAS = ("arrays", "projection.bias")


@pytest.mark.parametrize("keys, value, message", [
    ((), [1, 2], "not a fecam-checkpoint file"),
    (("arrays",), DROP, "'arrays' and 'meta' must be JSON objects"),
    (("arrays",), [], "'arrays' and 'meta' must be JSON objects"),
    (("meta",), [1], "'arrays' and 'meta' must be JSON objects"),
    (("arrays", "x"), [1.0], "need a list 'shape'"),
    ((*BIAS, "data"), DROP, "and a base64 string 'data'"),
    ((*BIAS, "data"), "abc", LENGTH),
    ((*BIAS, "data"), [{}] * 16, "and a base64 string 'data'"),
    ((*BIAS, "shape"), DROP, "need a list 'shape'"),
    ((*BIAS, "shape"), 16, "need a list 'shape'"),
    ((*BIAS, "shape"), [-16], "need a list 'shape'"),
    ((*BIAS, "shape"), [16.0], "need a list 'shape'"),
    ((*BIAS, "shape"), [2 ** 70], "does not match shape"),
    (("arrays", "projection.weight", "shape"), [512],
     "projection.weight: checkpoint shape (512,) is not (lookback, horizon)"),
    (("arrays", "fecam.excite1.weight", "shape"), [16, 32],
     "fecam.excite1.weight: checkpoint shape (16, 32) is not (lookback 32, a divisor of 32)"),
    (("arrays", "fecam.excite1.weight"), {"shape": [32, 12], "data": b64(np.zeros(384))},
     "fecam.excite1.weight: checkpoint shape (32, 12) is not (lookback 32, a divisor of 32)"),
    (("arrays",), lambda arrays: {k: v for k, v in arrays.items() if "excite1" not in k},
     "missing array 'fecam.excite1.weight'"),
    (("arrays",), {}, "checkpoint missing array 'projection.weight'"),
    (("arrays", "fecam.excite1.weight"), DROP, "missing array 'fecam.excite1.weight'"),
    (("version",), 1, f"unsupported checkpoint version 1: this fecam reads version "
                      f"{CHECKPOINT_VERSION}; re-run `fecam train`"),
    *[((*BIAS, "data"), edit, message) for edit, message in DATA_EDITS.values()],
], ids=["top-level-list", "no-arrays", "arrays-list", "meta-list", "entry-list",
        "no-data", "data-string", "data-objects", "no-shape", "shape-int", "shape-negative",
        "shape-float", "shape-huge", "projection-1d", "excite1-rows-not-lookback",
        "excite1-columns-not-divisor", "excite2-without-excite1", "arrays-empty", "no-excite1",
        "version-1", *DATA_EDITS])
def test_attention_malformed_checkpoint_exits_2(data_csv, tmp_path, capsys, keys, value, message):
    ckpt = make_checkpoint(tmp_path)
    ckpt.write_text(json.dumps(edited(json.loads(ckpt.read_text()), keys, value)))
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
    assert message in assert_input_error(argv, tmp_path / "x", capsys)


# Structural meta keys set to wrong or malformed values; sizes come from the arrays.
@pytest.mark.parametrize("key, value", [
    ("lookback", [32]), ("lookback", 32.9), ("reduction", 0), ("with_fecam", 0.5),
    ("with_fecam", "false"), ("lookback", 4000), ("reduction", 1),
], ids=["meta-lookback-list", "meta-lookback-float", "meta-reduction-zero",
        "meta-with-fecam-float", "meta-with-fecam-string", "meta-lookback-large",
        "meta-reduction-mismatch"])
def test_attention_reads_sizes_from_the_arrays_not_the_meta(data_csv, tmp_path, key, value):
    ckpt = make_checkpoint(tmp_path)
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv), "--out"]
    assert cli.main([*argv, str(tmp_path / "pristine")]) == 0
    payload = json.loads(ckpt.read_text())
    payload["meta"] = {"lookback": 32, "horizon": 16, "reduction": 2, "with_fecam": True}
    ckpt.write_text(json.dumps(edited(payload, ("meta", key), value)))
    assert cli.main([*argv, str(tmp_path / "edited")]) == 0
    assert ((tmp_path / "edited" / "attention.csv").read_bytes()
            == (tmp_path / "pristine" / "attention.csv").read_bytes())


def test_attention_checks_checkpoint_sizes_before_drawing_weights(data_csv, tmp_path, capsys):
    # At 2000 x 2000 the projection and excitation weights would take tens of
    # MiB; the file holds no arrays, so nothing that size may be allocated.
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({
        "format": "fecam-checkpoint", "version": CHECKPOINT_VERSION, "arrays": {},
        "meta": {"lookback": 2000, "horizon": 2000, "reduction": 2, "with_fecam": True}}))
    argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
    tracemalloc.start()
    try:
        err = assert_input_error(argv, tmp_path / "x", capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "checkpoint missing array 'projection.weight'" in err
    assert peak < 16 * 2 ** 20


# --- theorems -------------------------------------------------------------------------

def test_theorems_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "thm"
    assert cli.main(["theorems", "--trials", "50", "--max-len", "64",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trials=50 max_len=64" in printed
    assert printed.count("PASS") == 4 and "FAIL" not in printed
    payload = json.loads((out / "theorems.json").read_text())
    assert all(check["passed"] for check in payload["checks"])
    assert payload["trials"] == 50


def test_theorems_gap_link_passes_on_a_cancelling_sum(tmp_path):
    # Trial 52 of seed 9 draws 560 samples whose sum is about 1e-3 of sum|x|;
    # measured against that cancelled sum, the exact-to-rounding coefficient
    # looked 1.1e-12 wrong. Its error against sum|x| is 9e-17.
    out = tmp_path / "thm"
    assert cli.main(["theorems", "--trials", "60", "--max-len", "720", "--seed", "9",
                     "--out", str(out)]) == 0
    gap_link = json.loads((out / "theorems.json").read_text())["checks"][0]
    assert gap_link["name"] == "gap_link" and gap_link["worst_error"] < 1e-15


def test_theorems_gap_link_catches_a_planted_index_0_error(tmp_path, monkeypatch):
    exact = spectral.dct_matrix

    def planted(length, normalization=spectral.ORTHO):
        mat = exact(length, normalization).copy()
        mat[0] *= 1.0 + 1e-10
        return mat

    monkeypatch.setattr(spectral, "dct_matrix", planted)
    out = tmp_path / "thm"
    assert cli.main(["theorems", "--trials", "50", "--max-len", "64", "--out", str(out)]) == 1
    gap_link = json.loads((out / "theorems.json").read_text())["checks"][0]
    assert gap_link["name"] == "gap_link" and not gap_link["passed"]


def test_theorems_detects_injected_round_trip_bug(tmp_path, capsys, monkeypatch):
    def broken_inverse(spectrum):
        return cli.dct_matrix(len(spectrum.coefficients), "ortho").T @ spectrum.coefficients * 1.01

    monkeypatch.setattr(cli, "dct_inverse", broken_inverse)
    code = cli.main(["theorems", "--trials", "20", "--max-len", "32",
                     "--out", str(tmp_path / "thm")])
    assert code == 1
    captured = capsys.readouterr()
    assert "round_trip" in captured.err and "FAIL" in captured.out


def test_theorems_out_of_memory_exits_2_without_outputs(tmp_path, capsys, monkeypatch):
    # Stands in for the basis allocation a very long length would attempt.
    def no_memory(length, normalization="ortho"):
        raise MemoryError(f"Unable to allocate {8 * length * length} bytes")

    monkeypatch.setattr(spectral, "dct_matrix", no_memory)
    out = tmp_path / "thm"
    assert cli.main(["theorems", "--trials", "5", "--max-len", "100000",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Unable to allocate" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("max_len", [4, 16, 64, 256])
def test_theorems_orthogonality_error_keeps_the_bits_of_the_plain_expression(tmp_path, max_len):
    # The check subtracts the identity from B B^T in place; x - 0.0 == x off
    # the diagonal, so it reports the very number |B B^T - I| gives.
    out = tmp_path / "thm"
    assert cli.main(["theorems", "--trials", "1", "--max-len", str(max_len),
                     "--out", str(out)]) == 0
    check = json.loads((out / "theorems.json").read_text())["checks"][3]
    plain = max(float(np.max(np.abs(basis @ basis.T - np.eye(length))))
                for length in {4, 16, 64, max_len}
                for basis in [spectral.dct_matrix(length, spectral.ORTHO)])
    assert check["name"] == "orthogonality" and check["worst_error"] == plain


def test_theorems_validates_arguments(tmp_path, capsys):
    assert cli.main(["theorems", "--trials", "0", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["theorems", "--max-len", "2", "--out", str(tmp_path / "y")]) == 2
    capsys.readouterr()
    err = assert_input_error(["theorems", "--seed", "-1"], tmp_path / "z", capsys)
    assert "seed must be >= 0, got -1" in err


# --- failure contract fuzz -------------------------------------------------------------

INTS = ["-1", "0", "1", "2", "-0", "1.5", "x", "", "nan"]
RATES = ["-1", "0", "nan", "inf", "-inf", "-1e308", "x", ""]
LISTS = ["", ",", "x", "0", "-5", "5,x", "1.5", "5,,10", "3,3", "17"]
FUZZ_FLAGS = {
    "train": {"--lookback": INTS, "--horizon": INTS, "--reduction": INTS,
              "--batch-size": INTS, "--epochs": INTS, "--seed": INTS,
              "--early-stop-patience": INTS, "--lr": RATES, "--lr-decay": RATES,
              "--split": ["a:b:c", "7:2", "::", "-1:1:1", "nan:1:1", "1:1e308:1", "halves"]},
    "gibbs": {"--orders": LISTS, "--curve-points": INTS, "--wave": ["sine", "triangle", "pulse"],
              "--amplitude": [*RATES, "1e308"]},
    "compaction": {"--length": INTS, "--components": LISTS, "--signal": ["ramp", "sawtooth"]},
    "theorems": {"--trials": INTS, "--max-len": INTS, "--seed": INTS},
}
# Structural keys earlier files carried, which the loader reads none of, and
# the data settings attention reads.
META_KEYS = ["lookback", "horizon", "reduction", "with_fecam", *DEFAULT_SETTINGS]
META_VALUES = [DROP, None, -1, 0, 32.9, "32", True, [32], 4000, 2 ** 70]
ARRAY_EDITS = [("shape", DROP), ("shape", [-1]), ("shape", [2 ** 70]), ("shape", "16"),
               ("data", DROP), ("data", "abc"), ("data", [None]),
               *[("data", edit) for edit, _ in DATA_EDITS.values()]]


def fuzz_checkpoint(rng, payload: dict, path) -> None:
    """Write payload with its meta, one array entry, or the file text broken."""
    kind = int(rng.integers(3))
    if kind == 0:
        key = META_KEYS[int(rng.integers(len(META_KEYS)))]
        payload = edited(payload, ("meta", key), META_VALUES[int(rng.integers(len(META_VALUES)))])
    elif kind == 1:
        name = sorted(payload["arrays"])[int(rng.integers(len(payload["arrays"])))]
        field, value = ARRAY_EDITS[int(rng.integers(len(ARRAY_EDITS)))]
        payload = edited(payload, ("arrays", name, field), value)
    text = json.dumps(payload)
    if kind == 2:
        text = text[:int(rng.integers(len(text)))]
    path.write_text(text)


CELL_BREAKS = ['"{}"', "", " ", "nan", "inf", "-inf", "1e999", "-1e999", "{}#1", "1_0", "\u0661"]
LINE_BREAKS = ["long", "short", "whitespace", "iso-stamp", "aware-stamp", "repeat-stamp",
               "cr", "crlf-and-cr", "bom", "header-only"]


def fuzz_csv(rng, text: str) -> str:
    """Break one cell, one line or the line ends of a valid CSV with numeric or ISO stamps."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    if rng.integers(2):
        for r, row in enumerate(rows):
            row[0] = f"2016-07-{1 + r // 24:02d}T{r % 24:02d}:00"  # hourly, under 31 days
    r = int(rng.integers(1, len(rows)))
    if rng.integers(2):
        c = int(rng.integers(1, len(rows[r])))
        rows[r][c] = CELL_BREAKS[int(rng.integers(len(CELL_BREAKS)))].format(rows[r][c])
        return "\n".join([header, *map(",".join, rows)]) + "\n"
    kind = LINE_BREAKS[int(rng.integers(len(LINE_BREAKS)))]
    if kind == "long":
        rows[r].append("1")
    elif kind == "short":
        rows[r].pop()
    elif kind == "iso-stamp":
        rows[r][0] = "2016-07-01T00:00"
    elif kind == "aware-stamp":  # an offset on an ISO stamp, an overflowing number otherwise
        rows[r][0] = rows[r][0] + "+00:00" if ":" in rows[r][0] else "1e999"
    elif kind == "repeat-stamp":
        rows[r][0] = rows[r - 1][0]
    lines = [header, *map(",".join, rows)]
    if kind == "whitespace":
        lines.insert(r, "  ")
    elif kind == "header-only":
        lines = [header]
    text = "\n".join(lines) + "\n"
    if kind == "cr":
        text = text.replace("\n", "\r")
    elif kind == "crlf-and-cr":
        text = text.replace("\n", "\r\n").replace("\r\n", "\r", 1)
    elif kind == "bom":
        text = "\ufeff" + text
    return text


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_fuzzed_flags_and_checkpoints_keep_the_failure_contract(data_csv, tmp_path, capsys):
    # Each case breaks one or two flags of a small valid run, or one part of a
    # valid checkpoint. Whatever the outcome, it must be a documented exit
    # code, no traceback, no directory after a failure, and strict JSON.
    base = {
        "train": ["train", "--data", str(data_csv), "--lookback", "16", "--horizon", "8",
                  "--epochs", "1"],
        "gibbs": ["gibbs", "--orders", "10,100", "--curve-points", "32"],
        "compaction": ["compaction", "--signal", "ramp", "--length", "16", "--components", "5,10"],
        "theorems": ["theorems", "--trials", "5", "--max-len", "16"],
    }
    pristine = json.loads(make_checkpoint(tmp_path).read_text())
    # The meta branch edits one of META_KEYS, each set as an earlier file or train set it.
    pristine["meta"] = {"lookback": 32, "horizon": 16, "reduction": 2, "with_fecam": True,
                        **DEFAULT_SETTINGS}
    rng = np.random.default_rng(20261018)
    codes = []
    for case in range(40):
        command = [*FUZZ_FLAGS, "attention"][int(rng.integers(5))]
        if command == "attention":
            ckpt = tmp_path / f"ckpt{case}.json"
            fuzz_checkpoint(rng, json.loads(json.dumps(pristine)), ckpt)
            argv = ["attention", "--checkpoint", str(ckpt), "--data", str(data_csv)]
        else:
            flags = list(FUZZ_FLAGS[command])
            argv = list(base[command])
            for i in rng.choice(len(flags), size=int(rng.integers(1, 3)), replace=False):
                pool = FUZZ_FLAGS[command][flags[i]]
                argv.append(f"{flags[i]}={pool[int(rng.integers(len(pool)))]}")
        out = tmp_path / f"out{case}"
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert not out.exists(), argv
        for path in out.glob("*.json"):
            strict_json(path.read_text())
        codes.append(code)
    assert set(codes) >= {0, 2}

    # Extreme finite rates: one that overflows a training step diverges, one that does not trains.
    for rate, expected in (("1e308", 3), ("1e9", 0)):
        out = tmp_path / f"rate{rate}"
        assert cli.main([*base["train"], f"--lr={rate}", "--out", str(out)]) == expected
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists() == (expected == 0)

    # Broken data files, for train and attention: exit 0, 2 or 3, never a traceback.
    csv_rng = np.random.default_rng(20261019)
    csv_codes = []
    policies = ["reject", "ffill"]
    ckpts = [make_checkpoint(tmp_path, meta={"fill_policy": policy}, name=f"ckpt_{policy}.json")
             for policy in policies]
    for case in range(30):
        path = tmp_path / f"data{case}.csv"
        path.write_text(fuzz_csv(csv_rng, data_csv.read_text()), newline="")
        command, policy = csv_rng.integers(2), int(csv_rng.integers(2))
        if command:  # attention reads its fill policy from the checkpoint
            argv = ["attention", "--checkpoint", str(ckpts[policy])]
        else:
            argv = ["train", "--lookback", "16", "--horizon", "8", "--epochs", "1",
                    "--fill-policy", policies[policy]]
        argv += ["--data", str(path)]
        out = tmp_path / f"csv_out{case}"
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert not out.exists(), argv
        for result in out.glob("*.json"):
            strict_json(result.read_text())
        csv_codes.append(code)
    assert set(csv_codes) >= {0, 2}


# --- packaging ---------------------------------------------------------------------------

def test_console_script_entry_point(tmp_path):
    exe = shutil.which("fecam")
    env = None
    if exe is None:
        # Not installed: run the checkout's package, which pytest imports from src/.
        cmd = [sys.executable, "-m", "fecam.cli"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    else:
        cmd = [exe]
    result = subprocess.run(cmd + ["theorems", "--trials", "5", "--max-len", "16",
                                   "--out", str(tmp_path / "thm")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_usage_error_from_argparse_is_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["train"])  # --data is required
    assert excinfo.value.code == 2


def readme_block(section: str, opening: str) -> str:
    """The first fenced block under README's `### section` whose text starts with opening."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    body = text.split(f"\n### {section}\n", 1)[1].split("\n### ", 1)[0]
    blocks = [block.split("\n", 1)[1] for block in body.split("```")[1::2]]
    return next(block for block in blocks if block.startswith(opening))


def test_readme_toy_input_trains_and_exports_attention(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(readme_block("train", "import numpy"), {})
    for section, out in (("train", "run1/metrics.json"), ("attention", "att_run/attention.csv")):
        argv = shlex.split(readme_block(section, "fecam ").replace("\\\n", " "))
        assert cli.main(argv[1:]) == 0
        assert (tmp_path / out).is_file()
