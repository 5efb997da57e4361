"""Command-line harness for the forecaster and the spectral experiments.

Five subcommands: train (fit/evaluate, optionally both ablation arms), gibbs
(overshoot sweep with plottable partial-sum curves), compaction (truncated
reconstruction error tables), attention (heatmap export from a checkpoint,
over windows prepared with the data settings train recorded in its meta),
and theorems (randomized verification suite). A command only computes: it
returns its exit code and the files to write, and main() creates the output
directory, writes them, and adds manifest.json (the exact invocation, config,
seed and library versions, so any result can be reproduced from the output
directory alone) and timing.json (wall time, the one file that differs between
repeat runs).

Exit codes: 0 success, 1 property failure, 2 usage or config error (or an
unusable path or checkpoint meta value, or an input too large for
memory), 3 numerical divergence. The FECAM_OUT environment variable, when set,
takes precedence over --out.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .attention import export_attention, mean_attention
from .data import (
    FILL_POLICIES,
    RawSeries,
    SettingError,
    chronological_split,
    fit_standardizer,
    load_csv,
    make_windows,
    series_summary,
    write_csv,
)
from .forecaster import (
    DivergenceError,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    persistence_report,
    save_model,
    train,
)
from .spectral import (
    GIBBS_CONSTANT,
    ORTHO,
    UNNORMALIZED,
    dct_forward,
    dct_inverse,
    dct_matrix,
    dct_via_even_dft,
    edge_error,
    fourier_partial_sum,
    gibbs_sweep,
    low_frequency_signal,
    pulse_wave_series,
    square_wave_series,
    truncated_reconstructions,
)

SPLIT_PRESETS = {"conventional": (0.7, 0.1, 0.2)}
# How a CSV becomes windows: train's flag defaults, which its checkpoint's
# meta records under these keys; attention reads them back, a missing key
# taking its default.
DATA_DEFAULTS = {"date_column": 0, "fill_policy": "reject", "split": "7:2:2", "channel": None}


def _parse_ratios(text: str):
    if text in SPLIT_PRESETS:
        return SPLIT_PRESETS[text]
    try:
        a, b, c = (float(p) for p in text.split(":"))
    except ValueError:
        raise SettingError("split", f"split must be a:b:c numbers or a preset "
                                    f"{sorted(SPLIT_PRESETS)}, got {text!r}") from None
    return a, b, c


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError("empty integer list")
    return values


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_manifest(out_dir: Path, args, argv: list[str]) -> None:
    config = {key: str(value) if isinstance(value, Path) else value
              for key, value in vars(args).items() if key != "func"}
    # float32 training's bits depend on the BLAS kernels, so the BLAS is named too.
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # show_config(mode=) needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write_json(out_dir / "manifest.json", {
        "command_line": argv,
        "config": config,
        "seed": getattr(args, "seed", None),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fecam": __version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
        },
    })


def _select_channel(series: RawSeries, channel: str | None) -> RawSeries:
    if channel is None:
        return series
    matches = series.channel_names.count(channel)
    if matches != 1:
        raise SettingError("channel", f"{matches or 'no'} channels named {channel!r}; "
                                      f"file has {series.channel_names}")
    idx = series.channel_names.index(channel)
    return RawSeries(series.observations[:, idx:idx + 1], [channel])


def _prepared_windows(args, lookback: int, horizon: int, train_dtype=np.float64):
    """Load -> select -> split -> standardize -> window; the train split comes in train_dtype."""
    series = load_csv(args.data, date_column=args.date_column, fill_policy=args.fill_policy)
    series = _select_channel(series, args.channel)
    ratios = _parse_ratios(args.split)
    splits = chronological_split(series, ratios, min_slice_len=lookback + horizon)
    scaler = fit_standardizer(splits[0])
    windows = tuple(make_windows(scaler.apply(s).astype(dtype, copy=False), lookback, horizon)
                    for s, dtype in zip(splits, (train_dtype, np.float64, np.float64)))
    return series, splits, windows


def _metrics_payload(args, config: TrainConfig, report, history) -> dict:
    return {
        "dataset": Path(args.data).name,
        "channel": args.channel or "all",
        "lookback": config.lookback,
        "horizon": config.horizon,
        "seed": config.seed,
        "mse": report.mse,
        "mae": report.mae,
        "epochs_run": len(history),
        "scale": "standardized",
        "step_mse": [float(v) for v in report.step_mse],
    }


def cmd_train(args) -> tuple[int, dict]:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    series, splits, (train_ds, val_ds, test_ds) = _prepared_windows(
        args, config.lookback, config.horizon, np.float32)
    summary = series_summary(series, splits)
    baseline = persistence_report(test_ds)

    # Both ablation arms draw the same projection weights and shuffle stream,
    # so the attention layer is their only difference. A plain run has one
    # arm named "", so its files carry no suffix.
    files = {"dataset.json": functools.partial(_write_json, payload=summary)}
    test_mse = {}
    for arm in ("fecam", "plain") if args.ablation else ("",):
        model, history = train(build_model(config, with_fecam=arm != "plain"),
                               train_ds, val_ds, config)
        report = evaluate(model, test_ds)
        test_mse[arm] = report.mse
        suffix = f"_{arm}" if arm else ""
        payload = _metrics_payload(args, config, report, history)
        if arm:
            payload["arm"] = arm
        payload["persistence_mse"] = baseline.mse
        payload["persistence_mae"] = baseline.mae
        files[f"metrics{suffix}.json"] = functools.partial(_write_json, payload=payload)
        files[f"loss_history{suffix}.csv"] = functools.partial(
            write_csv, header=["epoch", "train_loss", "val_loss"], rows=history)
        files[f"model{suffix}.json"] = functools.partial(
            save_model, model=model, meta={"dataset": Path(args.data).name,
                                           **{key: getattr(args, key) for key in DATA_DEFAULTS}})
    if args.ablation:
        fecam_mse, plain_mse = test_mse["fecam"], test_mse["plain"]
        files["ablation.json"] = functools.partial(_write_json, payload={
            "fecam_mse": fecam_mse,
            "plain_mse": plain_mse,
            "mse_reduction_pct": (plain_mse - fecam_mse) / plain_mse * 100.0,
        })
    return 0, files


def cmd_gibbs(args) -> tuple[int, dict]:
    orders = _parse_int_list(args.orders)
    if any(n < 1 for n in orders):
        raise ValueError("orders must be >= 1")
    if args.curve_points < 1:
        raise ValueError(f"curve-points must be >= 1, got {args.curve_points}")
    if not np.isfinite(args.amplitude):
        raise ValueError(f"amplitude must be finite, got {args.amplitude}")
    make_wave = square_wave_series if args.wave == "square" else pulse_wave_series
    model = make_wave(args.amplitude)

    rows = gibbs_sweep(model, orders)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"amplitude {args.amplitude} overflows the overshoot sweep")
    xs = np.linspace(0.0, model.period, args.curve_points, endpoint=False)
    files = {"gibbs.csv": functools.partial(write_csv, header=["N", "overshoot", "target"],
                                            rows=rows)}
    for order in orders:
        files[f"curve_n{order}.csv"] = functools.partial(
            write_csv, header=["x", "value"], rows=zip(xs, fourier_partial_sum(model, order, xs)))
    files["gibbs.json"] = functools.partial(_write_json, payload={
        "wave": args.wave,
        "jump": model.jump,
        "target_overshoot": model.jump * GIBBS_CONSTANT,
        "rows": [{"order": n, "overshoot": o, "target": t} for n, o, t in rows],
    })
    return 0, files


def cmd_compaction(args) -> tuple[int, dict]:
    components = _parse_int_list(args.components)
    if args.length < 1:
        raise ValueError(f"length must be >= 1, got {args.length}")
    if args.signal == "fixture":
        signal = low_frequency_signal(args.length)
    else:
        signal = np.arange(args.length, dtype=np.float64)
    recons = truncated_reconstructions(signal, components)

    errors = ["n", "dct_err", "dft_err"]
    tables = {"compaction.csv": (errors, sorted(
        (n, float(np.linalg.norm(dct - signal)), float(np.linalg.norm(dft - signal)))
        for n, dct, dft in recons))}
    for column, kind in enumerate(("dct", "dft"), start=1):
        for row in recons:
            tables[f"recon_{kind}_n{row[0]}.csv"] = (["index", "original", "reconstruction"],
                                                     zip(range(args.length), signal, row[column]))
    if args.signal == "ramp":
        tables["boundary.csv"] = (errors, [(n, edge_error(signal, dct), edge_error(signal, dft))
                                           for n, dct, dft in recons])
    return 0, {name: functools.partial(write_csv, header=header, rows=rows)
               for name, (header, rows) in tables.items()}


def cmd_attention(args) -> tuple[int, dict]:
    model, meta = load_model(args.checkpoint)
    if model.fecam is None:
        raise ValueError("checkpoint has no attention layer (trained with --ablation plain arm?)")
    # Prepare windows as training did; an unusable meta setting names the checkpoint and key.
    try:
        for key, default in DATA_DEFAULTS.items():
            value = meta.get(key, default)
            if not isinstance(value, str) and type(value) is not type(default):
                raise SettingError(key, f"must be a string or {type(default).__name__}, "
                                        f"got {value!r}")
            setattr(args, key, value)
        _, _, (_, _, test_ds) = _prepared_windows(args, model.lookback, model.horizon)
    except SettingError as exc:
        raise ValueError(f"{args.checkpoint}: meta {exc.key!r}: {exc}") from None

    mean_att = mean_attention(test_ds.inputs, model.fecam)
    return 0, {"attention.csv": functools.partial(export_attention, mean_att)}


def cmd_theorems(args) -> tuple[int, dict]:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if args.max_len < 4:
        raise ValueError(f"max-len must be >= 4, got {args.max_len}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    checks = []

    worst = 0.0
    for _ in range(args.trials):
        length = int(rng.integers(4, args.max_len + 1))
        x = rng.normal(size=length) * rng.uniform(0.1, 100.0)
        # f0 is a dot product with an all-ones row, so its rounding error is
        # bounded relative to sum|x|, not to the sum itself, which can cancel.
        f0 = dct_forward(x, UNNORMALIZED).coefficients[0]
        worst = max(worst, abs(f0 - math.fsum(x)) / math.fsum(np.abs(x)))
    checks.append(("gap_link", worst, 1e-12))

    worst = 0.0
    for _ in range(min(args.trials, 200)):
        length = int(rng.integers(2, min(args.max_len, 128) + 1))
        x = rng.normal(size=length)
        direct = dct_forward(x, UNNORMALIZED).coefficients
        worst = max(worst, float(np.max(np.abs(direct - dct_via_even_dft(x)))))
    checks.append(("even_dft_identity", worst, 1e-9))

    worst = 0.0
    for _ in range(max(args.trials // 5, 1)):
        length = int(rng.integers(1, args.max_len + 1))
        x = rng.normal(size=length) * 10.0
        for norm in (UNNORMALIZED, ORTHO):
            back = dct_inverse(dct_forward(x, norm))
            worst = max(worst, float(np.max(np.abs(back - x))))
    checks.append(("round_trip", worst, 1e-9))

    worst = 0.0
    for length in sorted({4, 16, 64, min(256, args.max_len), args.max_len}):
        basis = dct_matrix(length, ORTHO)
        # B B^T - I in place: off the diagonal, x - 0.0 == x.
        gram = basis @ basis.T
        gram.flat[::length + 1] -= 1.0
        worst = max(worst, float(np.max(np.abs(gram, out=gram))))
    checks.append(("orthogonality", worst, 1e-10))

    failures = []
    print(f"randomized verification: trials={args.trials} max_len={args.max_len} seed={args.seed}")
    for name, error, tolerance in checks:
        ok = error < tolerance
        if not ok:
            failures.append(name)
        print(f"  {name:18s} {'PASS' if ok else 'FAIL'}  worst {error:.3e}  (tol {tolerance:g})")
    report = {
        "trials": args.trials,
        "max_len": args.max_len,
        "seed": args.seed,
        "checks": [{"name": n, "worst_error": float(e), "tolerance": t, "passed": bool(e < t)}
                   for n, e, t in checks],
    }
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
    return (1 if failures else 0), {"theorems.json": functools.partial(_write_json, payload=report)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fecam",
        description="Frequency enhanced channel attention forecasting and spectral demos")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit the forecaster and report test metrics")
    p_train.add_argument("--data", type=Path, required=True, help="input CSV path")
    p_train.add_argument("--date-column",
                         type=lambda s: int(s) if s.lstrip("-").isdigit() else s,
                         help="timestamp column, by name or index (default: first column)")
    p_train.add_argument("--fill-policy", choices=FILL_POLICIES)
    p_train.add_argument("--split",
                         help="a:b:c ratios (e.g. 7:2:2, 3:1:1) or the preset conventional")
    p_train.add_argument("--channel", help="restrict to one channel by name (univariate run)")
    p_train.set_defaults(**DATA_DEFAULTS)
    # One flag per TrainConfig field, with its default; manifest.json lists them in field order.
    for f in dataclasses.fields(TrainConfig):
        p_train.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                             default=f.default)
    p_train.add_argument("--ablation", action="store_true",
                         help="train matched arms with and without attention")
    p_train.set_defaults(func=cmd_train)

    p_gibbs = sub.add_parser("gibbs", help="overshoot sweep for a jump discontinuity")
    p_gibbs.add_argument("--orders", default="10,100,1000,10000",
                         help="comma-separated partial-sum orders")
    p_gibbs.add_argument("--wave", choices=("square", "pulse"), default="square")
    p_gibbs.add_argument("--amplitude", type=float, default=1.0)
    p_gibbs.add_argument("--curve-points", type=int, default=512)
    p_gibbs.set_defaults(func=cmd_gibbs)

    p_comp = sub.add_parser("compaction", help="truncated reconstruction error table")
    p_comp.add_argument("--signal", choices=("fixture", "ramp"), default="fixture")
    p_comp.add_argument("--length", type=int, default=16)
    p_comp.add_argument("--components", default="5,10,15")
    p_comp.set_defaults(func=cmd_compaction)

    p_att = sub.add_parser("attention", help="export a checkpoint's attention heatmap")
    p_att.add_argument("--checkpoint", type=Path, required=True,
                       help="a model file from train, whose meta says how to window --data")
    p_att.add_argument("--data", type=Path, required=True, help="input CSV path")
    p_att.set_defaults(func=cmd_attention)

    p_thm = sub.add_parser("theorems", help="randomized verification of the transform identities")
    p_thm.add_argument("--trials", type=int, default=1000)
    p_thm.add_argument("--max-len", type=int, default=512)
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.set_defaults(func=cmd_theorems)

    for p_cmd in sub.choices.values():
        p_cmd.add_argument("--out", type=Path, default=Path("fecam_out"))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # The command only computes, so a run that fails leaves no directory.
        code, files = args.func(args)
        out = args.out = Path(os.environ.get("FECAM_OUT", "").strip() or args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        _write_manifest(out, args, argv)
        _write_json(out / "timing.json", {"wall_time_seconds": time.perf_counter() - started})
        return code
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large for memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
