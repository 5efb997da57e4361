"""The benchmark's workloads: input generation, CLI argv, output checks, steps.

Each workload writes its inputs from the seed in set-up, drives the product
through ``fecam.cli.main(argv)`` exactly as a command line would, checks every
output, and defines one inner *step* that the benchmark times on its own:

- train: zero_grad -> model_forward -> mse_loss -> model_backward ->
  adam_step on a seeded batch of 32 training windows, the sequence
  ``forecaster.train`` runs per batch;
- attention: ``fecam_forward`` on a seeded batch of 256 test windows, the
  loop body of ``fecam attention``;
- theorems: one gap-link trial, ``dct_forward`` at a seeded random length up
  to the maximum, the loop body of the check that dominates ``fecam theorems``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from fecam import attention, data, forecaster, nncore, spectral


@dataclass(frozen=True)
class Sizes:
    rows: int = 0
    channels: int = 0
    lookback: int = 0
    horizon: int = 0
    epochs: int = 0
    trials: int = 0
    max_len: int = 0
    split: str = "7:2:2"
    min_steps: int = 100


# ---------------------------------------------------------------------------
# Input generation (independent of fecam, so inputs never change with it)
# ---------------------------------------------------------------------------

def sinusoid_mix(rows: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """Noisy sum of three sinusoids per channel with seeded periods and phases."""
    t = np.arange(rows, dtype=np.float64)[:, None]
    periods = rng.uniform(12.0, 120.0, size=(3, channels))
    amps = np.array([1.0, 0.6, 0.4])[:, None] * rng.uniform(0.5, 2.0, size=channels)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, channels))
    wave = sum(amps[k] * np.sin(2.0 * np.pi * t / periods[k] + phases[k]) for k in range(3))
    offsets = rng.uniform(-5.0, 5.0, size=channels)
    return wave + offsets + rng.normal(0.0, 0.3, size=(rows, channels))


def write_csv(path: Path, values: np.ndarray, iso_step: timedelta | None) -> None:
    """First column numeric row index, or ISO timestamps `iso_step` apart."""
    rows, channels = values.shape
    if iso_step is None:
        stamps = [str(i) for i in range(rows)]
    else:
        start = datetime(2016, 7, 1)
        stamps = [(start + i * iso_step).isoformat(sep=" ") for i in range(rows)]
    cells = np.char.mod("%.6f", values)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(f"ch{c}" for c in range(channels)) + "\n")
        fh.writelines(f"{s},{','.join(row)}\n" for s, row in zip(stamps, cells.tolist()))


def split_windows(csv_path: Path, sizes: Sizes, part: int):
    """Windows of one split (0 train, 2 test), made as the CLI makes them."""
    series = data.load_csv(csv_path)
    ratios = [float(r) for r in sizes.split.split(":")]
    splits = data.chronological_split(series, ratios, min_slice_len=sizes.lookback + sizes.horizon)
    scaler = data.fit_standardizer(splits[0])
    return data.make_windows(scaler.apply(splits[part]), sizes.lookback, sizes.horizon)


def reference_fecam_forward(x: np.ndarray, layer) -> tuple[np.ndarray, np.ndarray]:
    """Plain FECAM forward: own cosine basis applied with einsum."""
    length = x.shape[2]
    n = np.arange(length)
    basis = np.cos(np.pi * np.outer(n, n + 0.5) / length) * math.sqrt(2.0 / length)
    basis[0] /= math.sqrt(2.0)
    freq = np.einsum("kn,bcn->bck", basis, x)
    h1 = np.maximum(freq @ layer.excite1.weight + layer.excite1.bias, 0.0)
    att = 1.0 / (1.0 + np.exp(-(h1 @ layer.excite2.weight + layer.excite2.bias)))
    return x * att, att


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    cli_share = 0.7  # share of the measured seconds spent on CLI invocations

    def __init__(self, sizes: Sizes, work: Path, seed: int):
        self.sizes = sizes
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def setup(self) -> None:
        """Write every input the program reads; repeatable, same files each time."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check_output(self) -> list[str]:
        """Problems with the output of the invocation that just ran."""
        return []

    def final_checks(self) -> list[str]:
        """Problems found once all invocations ran (reloads, cross-run identity)."""
        return []

    def prepare_steps(self) -> None:
        """Build what the step needs; runs after the first invocation."""

    def step(self, rng: np.random.Generator) -> float:
        """Run one timed step; return its seconds, or NaN if it failed its check."""
        raise NotImplementedError


class TrainWorkload(Workload):
    def __init__(self, sizes, work, seed):
        super().__init__(sizes, work, seed)
        self.csv = work / "series.csv"
        self.test_mses: list[float] = []

    def setup(self):
        values = sinusoid_mix(self.sizes.rows, self.sizes.channels,
                              np.random.default_rng([self.seed, 0]))
        write_csv(self.csv, values, None)

    def argv(self):
        s = self.sizes
        return ["train", "--data", str(self.csv), "--lookback", str(s.lookback),
                "--horizon", str(s.horizon), "--batch-size", "32", "--epochs", str(s.epochs),
                "--early-stop-patience", str(s.epochs), "--lr", "1e-3",
                "--split", s.split, "--seed", str(self.seed), "--out", str(self.out)]

    def check_output(self):
        metrics = json.loads((self.out / "metrics.json").read_text())
        mse, base = metrics["mse"], metrics["persistence_mse"]
        self.test_mses.append(mse)
        problems = []
        if not math.isfinite(mse) or not mse < base:
            problems.append(f"test mse {mse} is not a finite value below persistence {base}")
        if mse != self.test_mses[0]:
            problems.append(f"test mse {mse} differs from the first run's {self.test_mses[0]}")
        return problems

    def final_checks(self):
        model, _ = forecaster.load_model(self.out / "model.json")
        test_ds = split_windows(self.csv, self.sizes, 2)
        mse, expected = forecaster.evaluate(model, test_ds).mse, self.test_mses[0]
        if abs(mse - expected) > 1e-12 * abs(expected):
            return [f"reloaded model.json gives test mse {mse}, metrics.json says {expected}"]
        return []

    def prepare_steps(self):
        s = self.sizes
        self.train_ds = split_windows(self.csv, s, 0)
        config = forecaster.TrainConfig(lookback=s.lookback, horizon=s.horizon, lr=1e-3,
                                        seed=self.seed)
        self.model = forecaster.build_model(config)
        self.params = [p for p, _ in self.model.parameters()]
        self.grads = [g for _, g in self.model.parameters()]
        self.adam = nncore.AdamState(learning_rate=config.lr)

    def step(self, rng):
        idx = rng.integers(0, self.train_ds.n_windows, size=32)
        xb, yb = self.train_ds.inputs[idx], self.train_ds.targets[idx]
        model, cache = self.model, {}
        start = time.perf_counter()
        model.zero_grad()
        pred = forecaster.model_forward(model, xb, cache)
        loss, d_loss = nncore.mse_loss(pred, yb)
        forecaster.model_backward(model, d_loss, cache)
        nncore.adam_step(self.params, self.grads, self.adam)
        seconds = time.perf_counter() - start
        return seconds if math.isfinite(loss) else math.nan


class TrainC7L96(TrainWorkload):
    name = "train_c7_l96"
    why = ("fecam train at C=7, L=O=96: small matrices, so per-call Python overhead "
           "(per-(b,c) loops, checks, sigmoid, Adam) dominates")


class TrainC21L336(TrainWorkload):
    name = "train_c21_l336"
    why = ("fecam train at C=21, L=336, O=96: attention flops dominate, so an overhead "
           "cut that costs flops shows here and not on train_c7_l96")


class AttentionWorkload(Workload):
    # One invocation's time varies by up to 40% on a shared host, so the run
    # spends most of its time on them; a few hundred steps give steady percentiles.
    cli_share = 0.85
    stamp_step: timedelta

    def __init__(self, sizes, work, seed):
        super().__init__(sizes, work, seed)
        self.csv = work / "series.csv"
        self.checkpoint = work / "model.json"

    def setup(self):
        s = self.sizes
        values = sinusoid_mix(s.rows, s.channels, np.random.default_rng([self.seed, 0]))
        write_csv(self.csv, values, self.stamp_step)
        config = forecaster.TrainConfig(lookback=s.lookback, horizon=s.horizon, seed=self.seed)
        forecaster.save_model(self.checkpoint, forecaster.build_model(config))

    def argv(self):
        return ["attention", "--checkpoint", str(self.checkpoint), "--data", str(self.csv),
                "--out", str(self.out)]

    def check_output(self):
        with open(self.out / "attention.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        s = self.sizes
        header, body = rows[0], rows[1:]
        if len(header) != s.channels or len(body) != s.lookback:
            return [f"attention.csv is {len(body)}x{len(header)}, "
                    f"expected {s.lookback}x{s.channels}"]
        values = np.array(body, dtype=np.float64)
        if not np.all((values > 0.0) & (values < 1.0)):
            return ["attention.csv has values outside (0, 1)"]
        return []

    def prepare_steps(self):
        if not hasattr(self, "test_ds"):
            self.model, _ = forecaster.load_model(self.checkpoint)
            self.test_ds = split_windows(self.csv, self.sizes, 2)

    def final_checks(self):
        self.prepare_steps()
        batch = self.test_ds.inputs[:256]
        out, att = attention.fecam_forward(batch, self.model.fecam)
        ref_out, ref_att = reference_fecam_forward(batch, self.model.fecam)
        worst = max(float(np.max(np.abs(out - ref_out))), float(np.max(np.abs(att - ref_att))))
        if not worst <= 1e-12:
            return [f"fecam_forward differs from the einsum reference by {worst:.3e}"]
        return []

    def step(self, rng):
        idx = rng.integers(0, self.test_ds.n_windows, size=256)
        xb = self.test_ds.inputs[idx]
        start = time.perf_counter()
        out, att = attention.fecam_forward(xb, self.model.fecam)
        seconds = time.perf_counter() - start
        return seconds if np.isfinite(out).all() and np.isfinite(att).all() else math.nan


class AttentionEtth2(AttentionWorkload):
    name = "attention_etth2"
    why = ("fecam attention over an ETTh2-shaped 17,420x7 hourly ISO-timestamped CSV: the "
           "data layer dominates, inference only, so a training gain that costs inference shows")
    stamp_step = timedelta(hours=1)


class AttentionEttm2(AttentionWorkload):
    name = "attention_ettm2"
    why = ("fecam attention over an ETTm2-shaped 69,680x7 15-minute ISO-timestamped CSV: "
           "as attention_etth2, with 709 MiB of windows")
    stamp_step = timedelta(minutes=15)


class TheoremsL720(Workload):
    name = "theorems_l720"
    why = ("fecam theorems up to length 720: the spectral layer alone, including the "
           "dct_matrix cache, which training calls only once")

    def argv(self):
        return ["theorems", "--trials", str(self.sizes.trials), "--max-len",
                str(self.sizes.max_len), "--seed", str(self.seed), "--out", str(self.out)]

    def check_output(self):
        checks = json.loads((self.out / "theorems.json").read_text())["checks"]
        return [f"theorem check {c['name']} failed" for c in checks if not c["passed"]]

    def step(self, rng):
        length = int(rng.integers(4, self.sizes.max_len + 1))
        x = rng.normal(size=length)
        start = time.perf_counter()
        f0 = spectral.dct_forward(x, spectral.UNNORMALIZED).coefficients[0]
        seconds = time.perf_counter() - start
        # cos(0) = 1, so f0 is the plain sum; only summation order may differ.
        ok = abs(f0 - length * float(np.mean(x))) <= 1e-12 * float(np.sum(np.abs(x)))
        return seconds if ok else math.nan


FULL = {
    TrainC7L96: Sizes(rows=4000, channels=7, lookback=96, horizon=96, epochs=3),
    # A 2:1:1 split leaves val and test 319 windows each and keeps a run near 3 s.
    TrainC21L336: Sizes(rows=3000, channels=21, lookback=336, horizon=96, epochs=1,
                        split="2:1:1"),
    # ETTh2's shape builds 178 MiB of windows; ETTm2's 709 MiB made run_s differ
    # by 45% between two sets of runs on a shared 2-vCPU host.
    AttentionEtth2: Sizes(rows=17420, channels=7, lookback=96, horizon=96),
    AttentionEttm2: Sizes(rows=69680, channels=7, lookback=96, horizon=96),
    TheoremsL720: Sizes(trials=500, max_len=720),
}

SMOKE = {
    TrainC7L96: Sizes(rows=600, channels=2, lookback=32, horizon=32, epochs=3, min_steps=5),
    TrainC21L336: Sizes(rows=800, channels=3, lookback=24, horizon=24, epochs=2, min_steps=5),
    AttentionEtth2: Sizes(rows=400, channels=2, lookback=16, horizon=8, min_steps=5),
    AttentionEttm2: Sizes(rows=400, channels=2, lookback=16, horizon=8, min_steps=5),
    TheoremsL720: Sizes(trials=20, max_len=32, min_steps=5),
}

WORKLOADS = {cls.name: cls for cls in FULL}
