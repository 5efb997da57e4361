"""End-to-end tests for the command-line interface.

Commands run in-process through main() so exit codes and file outputs can be
asserted directly; one test goes through the installed console script to
check the packaging wiring.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fecam import cli
from fecam.data import synth_series
from fecam.forecaster import DivergenceError, ForecastModel, save_model


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FECAM_OUT", raising=False)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    series = synth_series("sinusoid_mix", 400, 3, noise_std=0.1, seed=4)
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    lines = ["time," + ",".join(series.channel_names)]
    for t, row in zip(series.timestamps, series.observations):
        lines.append(f"{t}," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def run_train(data_csv, out, *extra):
    return cli.main([
        "train", "--data", str(data_csv), "--lookback", "32", "--horizon", "16",
        "--epochs", "2", "--lr", "1e-3", "--seed", "5", "--out", str(out), *extra])


# --- train -----------------------------------------------------------------------

def test_train_writes_metrics_history_checkpoint_manifest(data_csv, tmp_path):
    out = tmp_path / "run"
    assert run_train(data_csv, out) == 0
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
    assert manifest["wall_time_seconds"] > 0
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


def test_train_bad_config_exits_2(data_csv, tmp_path):
    code = cli.main(["train", "--data", str(data_csv), "--lookback", "33",
                     "--reduction", "2", "--out", str(tmp_path / "x")])
    assert code == 2


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


def test_train_univariate_channel(data_csv, tmp_path):
    out = tmp_path / "uni"
    assert run_train(data_csv, out, "--channel", "ch1") == 0
    assert json.loads((out / "metrics.json").read_text())["channel"] == "ch1"
    assert json.loads((out / "dataset.json").read_text())["channels"] == 1
    assert cli.main(["train", "--data", str(data_csv), "--channel", "nope",
                     "--out", str(tmp_path / "y")]) == 2


def test_train_ablation_writes_both_arms(data_csv, tmp_path):
    out = tmp_path / "abl"
    assert run_train(data_csv, out, "--ablation") == 0
    fecam_m = json.loads((out / "metrics_fecam.json").read_text())
    plain_m = json.loads((out / "metrics_plain.json").read_text())
    summary = json.loads((out / "ablation.json").read_text())
    expected = (plain_m["mse"] - fecam_m["mse"]) / plain_m["mse"] * 100.0
    assert summary["mse_reduction_pct"] == pytest.approx(expected, rel=1e-12)
    assert (out / "model_fecam.json").exists() and (out / "model_plain.json").exists()
    assert (out / "loss_history_fecam.csv").exists()


def test_divergence_maps_to_exit_3(data_csv, tmp_path, monkeypatch):
    def explode(*_args, **_kwargs):
        raise DivergenceError("non-finite loss at epoch 0")

    monkeypatch.setattr(cli, "train", explode)
    assert run_train(data_csv, tmp_path / "div") == 3


def test_env_var_overrides_out_flag(data_csv, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FECAM_OUT", str(env_dir))
    assert run_train(data_csv, tmp_path / "from_flag") == 0
    assert (env_dir / "metrics.json").exists()
    assert not (tmp_path / "from_flag").exists()


# --- gibbs -----------------------------------------------------------------------

def test_gibbs_writes_sweep_and_curves(tmp_path):
    out = tmp_path / "gibbs"
    assert cli.main(["gibbs", "--orders", "10,100", "--curve-points", "64",
                     "--out", str(out)]) == 0
    lines = (out / "gibbs.csv").read_text().strip().splitlines()
    assert lines[0] == "N,overshoot,target"
    assert len(lines) == 3
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


def test_gibbs_refuses_jumpless_wave(tmp_path, capsys):
    assert cli.main(["gibbs", "--wave", "sine", "--out", str(tmp_path / "s")]) == 2
    assert "no jump" in capsys.readouterr().err


def test_gibbs_rejects_bad_orders(tmp_path):
    assert cli.main(["gibbs", "--orders", "abc", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["gibbs", "--orders", "0,5", "--out", str(tmp_path / "y")]) == 2


# --- compaction --------------------------------------------------------------------

def test_compaction_fixture_table_and_reconstructions(tmp_path):
    out = tmp_path / "comp"
    assert cli.main(["compaction", "--out", str(out)]) == 0
    lines = (out / "compaction.csv").read_text().strip().splitlines()
    assert lines[0] == "n,dct_err,dft_err"
    for line in lines[1:]:
        n, dct_err, dft_err = line.split(",")
        assert float(dct_err) < float(dft_err)
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
    for line in lines[1:]:
        _, dct_err, dft_err = line.split(",")
        assert float(dct_err) < float(dft_err)


def test_compaction_rejects_out_of_range_components(tmp_path):
    assert cli.main(["compaction", "--components", "17",
                     "--out", str(tmp_path / "x")]) == 2


# --- attention -----------------------------------------------------------------------

def make_checkpoint(tmp_path, zero=False, with_fecam=True):
    model = ForecastModel(32, 16, with_fecam=with_fecam, seed=3)
    if zero and with_fecam:
        for value, _ in model.fecam.parameters():
            value[:] = 0.0
    path = tmp_path / "ckpt.json"
    save_model(path, model)
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


def test_attention_rejects_plain_checkpoint(data_csv, tmp_path):
    ckpt = make_checkpoint(tmp_path, with_fecam=False)
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(tmp_path / "x")]) == 2


def test_attention_rejects_too_short_data(tmp_path):
    ckpt = make_checkpoint(tmp_path)
    short = tmp_path / "short.csv"
    short.write_text("time,a\n" + "\n".join(f"{t},{t * 0.5}" for t in range(30)) + "\n")
    assert cli.main(["attention", "--checkpoint", str(ckpt), "--data", str(short),
                     "--out", str(tmp_path / "x")]) == 2


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


def test_theorems_detects_injected_round_trip_bug(tmp_path, capsys, monkeypatch):
    def broken_inverse(spectrum):
        return cli.dct_matrix(len(spectrum.coefficients), "ortho").T @ spectrum.coefficients * 1.01

    monkeypatch.setattr(cli, "dct_inverse", broken_inverse)
    code = cli.main(["theorems", "--trials", "20", "--max-len", "32",
                     "--out", str(tmp_path / "thm")])
    assert code == 1
    captured = capsys.readouterr()
    assert "round_trip" in captured.err and "FAIL" in captured.out


def test_theorems_validates_arguments(tmp_path):
    assert cli.main(["theorems", "--trials", "0", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["theorems", "--max-len", "2", "--out", str(tmp_path / "y")]) == 2


# --- packaging ---------------------------------------------------------------------------

def test_console_script_entry_point(tmp_path):
    exe = shutil.which("fecam")
    if exe is None:
        cmd = [sys.executable, "-m", "fecam.cli"]
    else:
        cmd = [exe]
    result = subprocess.run(cmd + ["theorems", "--trials", "5", "--max-len", "16",
                                   "--out", str(tmp_path / "thm")],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_usage_error_from_argparse_is_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["train"])  # --data is required
    assert excinfo.value.code == 2
