"""Dataset ingestion and preparation for the forecaster.

Covers CSV loading with strict validation, chronological train/val/test
splitting, per-channel standardization fitted on the training slice only,
stride-1 sliding-window generation, and deterministic synthetic series for
tests and smoke runs. Everything stays in memory; files are never mutated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

FILL_POLICIES = ("reject", "ffill")


@dataclass
class RawSeries:
    """A multivariate series: strictly increasing timestamps over a T x C matrix."""

    timestamps: list
    observations: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.observations.ndim != 2:
            raise ValueError("observations must be a T x C matrix")
        t, c = self.observations.shape
        if len(self.timestamps) != t:
            raise ValueError(f"{len(self.timestamps)} timestamps for {t} rows")
        if len(self.channel_names) != c:
            raise ValueError(f"{len(self.channel_names)} names for {c} channels")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValueError("timestamps must be strictly increasing")

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def channels(self) -> int:
        return self.observations.shape[1]


def _parse_timestamp(text: str, line_no: int):
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"line {line_no}: unparseable timestamp {text!r}") from None


def load_csv(path, date_column: str | int = 0, fill_policy: str = "reject") -> RawSeries:
    """Read a CSV whose rows are (timestamp, value, value, ...).

    The timestamp column is selected by header name or position; every other
    column becomes a channel, in file order. Timestamps may be epoch numbers
    or ISO-8601, but not a mix of naive and offset-aware ISO times. Missing
    cells (empty or NaN) are rejected by default; fill_policy="ffill" copies
    the previous row's value instead. Infinite cells are always rejected.
    """
    if fill_policy not in FILL_POLICIES:
        raise ValueError(f"fill_policy must be one of {FILL_POLICIES}, got {fill_policy!r}")
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a timestamp column plus at least one channel")
        header = [h.strip() for h in header]
        if isinstance(date_column, int):
            ts_index = date_column
            if not 0 <= ts_index < len(header):
                raise ValueError(f"timestamp column index {ts_index} out of range")
        else:
            try:
                ts_index = header.index(date_column)
            except ValueError:
                raise ValueError(f"no column named {date_column!r} in header") from None
        channel_names = [h for i, h in enumerate(header) if i != ts_index]

        timestamps = []
        rows = []
        line_numbers = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            timestamps.append(_parse_timestamp(row[ts_index], line_no))
            line_numbers.append(line_no)
            values = np.empty(len(channel_names))
            col = 0
            for i, cell in enumerate(row):
                if i == ts_index:
                    continue
                cell = cell.strip()
                missing = cell == ""
                if not missing:
                    try:
                        values[col] = float(cell)
                    except ValueError:
                        raise ValueError(
                            f"line {line_no}: unparseable value {cell!r} "
                            f"in column {channel_names[col]!r}") from None
                    missing = np.isnan(values[col])
                if missing:
                    if fill_policy == "reject" or not rows:
                        raise ValueError(
                            f"line {line_no}: missing value in column {channel_names[col]!r}")
                    values[col] = rows[-1][col]
                col += 1
            rows.append(values)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    for line_no, a, b in zip(line_numbers[1:], timestamps, timestamps[1:]):
        if type(a) is not type(b):
            raise ValueError(f"line {line_no}: timestamp type differs from previous rows")
        try:
            increasing = a < b
        except TypeError:
            raise ValueError(
                f"line {line_no}: timestamp mixes naive and offset-aware times "
                "with the previous row") from None
        if not increasing:
            raise ValueError(f"line {line_no}: timestamps not strictly increasing")
    observations = np.vstack(rows)
    infinite = np.isinf(observations)
    if infinite.any():
        row, col = np.argwhere(infinite)[0]
        raise ValueError(
            f"line {line_numbers[row]}: infinite value in column {channel_names[col]!r}")
    return RawSeries(timestamps, observations, channel_names)


def chronological_split(series: RawSeries, ratios, min_slice_len: int = 1):
    """Cut a series into contiguous (train, val, test) slices, in time order.

    Ratios are normalized internally; val and test get the floor of their
    share and the remainder goes to train. Pass min_slice_len (typically
    lookback + horizon) to reject splits too short to window.
    """
    ratios = [float(r) for r in ratios]
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    total = sum(ratios)
    t = series.length
    n_val = int(t * ratios[1] / total)
    n_test = int(t * ratios[2] / total)
    n_train = t - n_val - n_test
    bounds = (0, n_train, n_train + n_val, t)
    pieces = []
    for name, lo, hi in zip(("train", "val", "test"), bounds, bounds[1:]):
        if hi - lo < min_slice_len:
            raise ValueError(
                f"{name} slice has {hi - lo} rows, fewer than the required {min_slice_len}")
        pieces.append(RawSeries(series.timestamps[lo:hi],
                                series.observations[lo:hi].copy(),
                                list(series.channel_names)))
    return tuple(pieces)


@dataclass
class Standardizer:
    """Per-channel affine map z = (x - mean) / std, fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, observations: np.ndarray) -> np.ndarray:
        observations = np.asarray(observations, dtype=np.float64)
        if observations.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"{observations.shape[-1]} channels, standardizer has {self.mean.shape[0]}")
        return (observations - self.mean) / self.std

    def inverse_transform(self, observations: np.ndarray) -> np.ndarray:
        observations = np.asarray(observations, dtype=np.float64)
        if observations.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"{observations.shape[-1]} channels, standardizer has {self.mean.shape[0]}")
        return observations * self.std + self.mean

    def apply(self, series: RawSeries) -> RawSeries:
        return RawSeries(series.timestamps, self.transform(series.observations),
                         list(series.channel_names))


def fit_standardizer(train) -> Standardizer:
    """Fit per-channel mean/std; degenerate (constant) channels are an error."""
    observations = train.observations if isinstance(train, RawSeries) else np.asarray(train)
    if observations.ndim != 2 or observations.shape[0] == 0:
        raise ValueError("need a nonempty T x C matrix to fit")
    mean = observations.mean(axis=0)
    std = observations.std(axis=0)
    flat = np.flatnonzero(std <= 1e-12)
    if flat.size:
        raise ValueError(f"channel {int(flat[0])} has (near-)zero variance, cannot standardize")
    return Standardizer(mean, std)


@dataclass
class WindowedDataset:
    """Aligned (input, target) window pairs: X is N x C x L, Y is N x C x O."""

    inputs: np.ndarray
    targets: np.ndarray
    lookback: int
    horizon: int

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]

    @property
    def channels(self) -> int:
        return self.inputs.shape[1]


def make_windows(series, lookback: int, horizon: int, stride: int = 1) -> WindowedDataset:
    """Slide an L-in / O-out window pair over the series at the given stride.

    Each target window starts exactly where its input window ends. At stride
    1 the pair count is T - L - O + 1.
    """
    observations = series.observations if isinstance(series, RawSeries) else np.asarray(series)
    if lookback < 1 or horizon < 1 or stride < 1:
        raise ValueError("lookback, horizon and stride must be positive")
    t = observations.shape[0]
    if t < lookback + horizon:
        raise ValueError(
            f"series of length {t} too short for lookback {lookback} + horizon {horizon}")
    starts = range(0, t - lookback - horizon + 1, stride)
    inputs = np.stack([observations[s:s + lookback].T for s in starts])
    targets = np.stack([observations[s + lookback:s + lookback + horizon].T for s in starts])
    return WindowedDataset(inputs, targets, lookback, horizon)


SYNTH_KINDS = ("sinusoid_mix", "ramp", "square")

# Incommensurate base periods, stretched per channel so that channels carry
# genuinely different spectra rather than rescaled copies of one signal.
_SINUSOID_PERIODS = (13.37, 29.7, 71.3)
_SINUSOID_AMPLITUDES = (1.0, 0.6, 0.4)


def synth_series(kind: str, length: int, channels: int,
                 noise_std: float = 0.0, seed: int = 0) -> RawSeries:
    """Deterministic synthetic multivariate series for tests and demos.

    sinusoid_mix sums three incommensurate sinusoids per channel, with
    channel-specific periods, amplitudes and phases; ramp is strictly
    increasing with a per-channel slope; square alternates at a per-channel
    period. The seed only drives the optional additive noise, so the clean
    signal is identical across seeds.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"kind must be one of {SYNTH_KINDS}, got {kind!r}")
    if length < 1 or channels < 1:
        raise ValueError("length and channels must be positive")
    t = np.arange(length, dtype=np.float64)
    observations = np.empty((length, channels))
    for c in range(channels):
        if kind == "sinusoid_mix":
            stretch = 1.0 + 0.15 * c
            wave = np.zeros(length)
            for k, (period, amp) in enumerate(zip(_SINUSOID_PERIODS, _SINUSOID_AMPLITUDES)):
                phase = 2.0 * np.pi * (0.37 * c + 0.113 * k + 0.051 * c * k)
                wave += amp * (1.0 + 0.2 * c) * np.sin(2.0 * np.pi * t / (period * stretch) + phase)
            observations[:, c] = wave
        elif kind == "ramp":
            observations[:, c] = (0.5 + 0.25 * c) * (t + 1.0)
        else:
            period = 20.0 + 6.0 * c
            observations[:, c] = np.where(np.sin(2.0 * np.pi * t / period + 0.3 * c) >= 0, 1.0, -1.0)
    if noise_std > 0.0:
        observations += np.random.default_rng(seed).normal(0.0, noise_std, observations.shape)
    names = [f"ch{c}" for c in range(channels)]
    return RawSeries(list(t), observations, names)


def series_summary(series: RawSeries, splits=None) -> dict:
    """JSON-ready description: shape, per-channel stats, optional split sizes."""
    summary = {
        "length": series.length,
        "channels": series.channels,
        "channel_names": list(series.channel_names),
        "channel_means": [float(m) for m in series.observations.mean(axis=0)],
        "channel_stds": [float(s) for s in series.observations.std(axis=0)],
    }
    if splits is not None:
        summary["split_sizes"] = {name: piece.length
                                  for name, piece in zip(("train", "val", "test"), splits)}
    return summary
