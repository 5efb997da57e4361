"""Dataset ingestion and preparation for the forecaster.

Covers CSV loading with strict validation, chronological train/val/test
splitting, per-channel standardization fitted on the training slice only,
sliding-window generation, and the CSV writer every artifact goes through.
Everything stays in memory; input files are never mutated.

A clean CSV (no quote, no lone CR, no ragged, blank, NaN or infinite cell,
timestamps of one kind and strictly increasing) is read in one np.loadtxt
call for the values and one pass over the timestamp column. Every other
file goes through csv.reader and one numpy conversion of the stripped cells
with Python's float() rules; that reader alone reports errors, and finds and
forward-fills missing cells with array operations. Both readers decode
UTF-8 and drop a leading byte-order mark, as Excel's "CSV UTF-8" writes.
Timestamp order is checked once, when a RawSeries is made; from the split
on, every stage takes and returns plain (rows, C) float64 arrays.
The split slices are views of the series' observations, and windows are
read-only views of a standardized, channel-major slice, so windowing a T x C
series costs O(T*C) memory, not O(N*C*(L+O)) for N windows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        # Only a failure of this cheap loop pays for _timestamp_fault's reason.
        try:
            for a, b in zip(self.timestamps, self.timestamps[1:]):
                if not a < b:
                    break
            else:
                return
        except TypeError:
            pass
        index, reason = _timestamp_fault(self.timestamps)
        raise ValueError(f"timestamp {index}: {reason}")

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def channels(self) -> int:
        return self.observations.shape[1]


def _iso_only(text: str) -> bool:
    """Whether stripped timestamp text can only be ISO: float() takes '-' only
    as a leading sign or right after an exponent's 'e', and never ':', so no
    text marked this way is a number."""
    return ":" in text or ("-" in text[1:] and "e-" not in text and "E-" not in text)


def _parse_timestamp(text: str, line_no: int):
    text = text.strip()
    # ISO-only text skips the float attempt. Everything else tries float
    # first, so text both parsers accept (20160701) stays a number.
    for parse in (datetime.fromisoformat,) if _iso_only(text) else (float, datetime.fromisoformat):
        try:
            return parse(text)
        except ValueError:
            pass
    raise ValueError(f"line {line_no}: unparseable timestamp {text!r}")


def _raise_unparseable(value_rows, line_numbers, channel_names) -> None:
    """Name the first cell float() rejects; only runs once bulk parsing failed."""
    for line_no, cells in zip(line_numbers, value_rows):
        for name, cell in zip(channel_names, cells):
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"line {line_no}: unparseable value {cell!r} in column {name!r}") from None


def _columns(header: list[str], date_column: str | int) -> tuple[int, list[str]]:
    """(timestamp column index, channel names in file order) for a stripped header."""
    if isinstance(date_column, int):
        ts_index = date_column
        if not 0 <= ts_index < len(header):
            raise ValueError(f"timestamp column index {ts_index} out of range")
    else:
        matches = header.count(date_column)
        if matches != 1:
            raise ValueError(f"{matches or 'no'} columns named {date_column!r} in header")
        ts_index = header.index(date_column)
    return ts_index, [h for i, h in enumerate(header) if i != ts_index]


def _timestamp_fault(timestamps: list) -> tuple[int, str] | None:
    """(index, reason) of the first timestamp that is not of its predecessor's
    kind or not above it; None when the whole list is strictly increasing."""
    for i, (a, b) in enumerate(zip(timestamps, timestamps[1:]), start=1):
        if type(a) is not type(b):
            return i, "timestamp type differs from previous rows"
        try:
            increasing = a < b
        except TypeError:
            return i, "timestamp mixes naive and offset-aware times with the previous row"
        if not increasing:
            return i, "timestamps not strictly increasing"
    return None


def load_csv(path, date_column: str | int = 0, fill_policy: str = "reject") -> RawSeries:
    """Read a CSV whose rows are (timestamp, value, value, ...).

    The timestamp column is selected by header name or position; every other
    column becomes a channel, in file order. Timestamps may be epoch numbers
    or ISO-8601, but not a mix of naive and offset-aware ISO times. Missing
    cells (empty or NaN) are rejected by default; fill_policy="ffill" copies
    the previous row's value instead. Infinite cells are always rejected.

    A clean file is parsed column by column (see _read_clean), any other row
    by row, to the same series; the timestamps' order is checked once.
    """
    if fill_policy not in FILL_POLICIES:
        raise ValueError(f"fill_policy must be one of {FILL_POLICIES}, got {fill_policy!r}")
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    series = _read_clean(path, date_column)
    if series is None:
        series = _read_validating(path, date_column, fill_policy)
    return series


def _read_clean(path: Path, date_column: str | int) -> RawSeries | None:
    """The series of a provably clean file, from one np.loadtxt call for the
    values and one pass over the timestamp column; else None.

    A file is clean when it decodes, holds no quote character, ends its lines
    only in LF or CRLF, has no line longer than csv's field size limit, names
    its timestamp column, gives every non-empty line exactly the header's
    comma count, has only value cells that np.loadtxt parses to finite
    floats, has a timestamp column that one float() pass or one ISO pass
    under _iso_only's rule parses (see _parse_stamp_column), and has
    timestamps in strictly increasing order, which RawSeries checks once. On
    such a file csv.reader splits the cells exactly as str.split(",") does,
    and every cell np.loadtxt accepts reads to the same bits under
    _read_validating's rule, float() of the stripped cell (np.loadtxt rejects
    some cells that rule reads, such as 1_0, never the reverse), so the
    result equals _read_validating's. Every other file is declined:
    _read_validating alone reports errors, fills missing cells and reads
    quoted cells.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text:
        return None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        return None
    # Not str.splitlines(): it also breaks at characters csv.reader keeps in a cell.
    header, *lines = text.split("\n")
    del text  # only the lines are used from here; holding both would raise peak memory
    lines = [line for line in lines if line]
    if not lines or max(len(header), *map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in header.split(",")]
    if len(header) < 2:
        return None
    try:
        ts_index, channel_names = _columns(header, date_column)
    except ValueError:
        return None
    # np.loadtxt with usecols ignores extra cells, so the count is what rejects ragged rows.
    commas = len(header) - 1
    if set(map(str.count, lines, repeat(","))) != {commas}:
        return None
    try:
        # comments=None: the default "#" would cut a cell short.
        observations = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                  usecols=[i for i in range(len(header)) if i != ts_index])
    except ValueError:
        return None
    if not np.isfinite(observations).all():
        return None
    timestamps = _parse_stamp_column(lines, ts_index)
    if timestamps is None:
        return None
    try:
        return RawSeries(timestamps, observations, channel_names)
    except ValueError:  # timestamps not strictly increasing, or naive and aware mixed
        return None


def _parse_stamp_column(lines: list[str], ts_index: int) -> list | None:
    """_parse_timestamp of every line's stamp cell when one float() pass or
    one fromisoformat pass takes the whole column; else None.

    A column that float() takes whole is what _parse_timestamp gives, since
    no text float() takes is ISO-only. Otherwise every stripped cell must be
    ISO-only, so that _parse_timestamp would not have tried float() on it
    (20160701 in an ISO column is a number there, and declined here). The
    cells are cut from the lines as each pass consumes them, never held as
    a list, so the read's peak memory does not grow by a column of strings.
    """
    def cells():
        return (line.split(",", ts_index + 1)[ts_index] for line in lines)

    try:
        return list(map(float, cells()))
    except ValueError:
        pass
    try:
        stamps = list(map(datetime.fromisoformat, filter(_iso_only, map(str.strip, cells()))))
    except ValueError:
        return None
    # A cell that is not ISO-only was filtered out and shortens the list.
    return stamps if len(stamps) == len(lines) else None


def _csv_rows(fh, path: Path):
    """csv.reader's rows; its errors, such as a cell past csv.field_size_limit(),
    become ValueErrors that name the line. A decoding error names only the file:
    the decoder counts byte positions from its current chunk, not the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason}); save it as UTF-8") from None


def _read_validating(path: Path, date_column: str | int, fill_policy: str) -> RawSeries:
    """csv.reader and float() of each stripped cell, for any file; every
    error names the line of the first fault."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a timestamp column plus at least one channel")
        header = [h.strip() for h in header]
        ts_index, channel_names = _columns(header, date_column)

        timestamps = []
        value_rows = []
        line_numbers = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            timestamps.append(_parse_timestamp(row.pop(ts_index), line_no))
            line_numbers.append(line_no)
            value_rows.append(row)

    if not value_rows:
        raise ValueError(f"{path}: no data rows")
    # The conversion follows float(), which ignores surrounding whitespace, so
    # only blank cells would make it fail on valid input; they are missing, like NaN.
    value_rows = [[cell.strip() or "nan" for cell in row] for row in value_rows]
    try:
        observations = np.array(value_rows, dtype=np.float64)
    except ValueError:
        _raise_unparseable(value_rows, line_numbers, channel_names)
        raise
    missing = np.isnan(observations)
    if missing.any():
        row, col = np.argwhere(missing)[0]
        if fill_policy == "reject" or row == 0:
            raise ValueError(
                f"line {line_numbers[row]}: missing value in column {channel_names[col]!r}")
        # Each cell takes the value of the latest row at or above it that has one.
        source = np.where(missing, 0, np.arange(len(observations))[:, None])
        np.maximum.accumulate(source, axis=0, out=source)
        observations = np.take_along_axis(observations, source, axis=0)
    fault = _timestamp_fault(timestamps)
    if fault is not None:
        index, reason = fault
        raise ValueError(f"line {line_numbers[index]}: {reason}")
    infinite = np.isinf(observations)
    if infinite.any():
        row, col = np.argwhere(infinite)[0]
        raise ValueError(
            f"line {line_numbers[row]}: infinite value in column {channel_names[col]!r}")
    return RawSeries(timestamps, observations, channel_names)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, comma-separated, LF-terminated.

    Floats are written with nine significant digits (%.9g); every other cell,
    ints included, as its plain text.
    """
    lines = [",".join(header)]
    lines += [",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def chronological_split(series: RawSeries, ratios, min_slice_len: int = 1):
    """Cut a series into contiguous (train, val, test) row slices, in time order.

    Each slice is a view of series.observations. Ratios are normalized
    internally; val and test get the floor of their share and the remainder
    goes to train. Pass min_slice_len (typically lookback + horizon) to
    reject splits too short to window.
    """
    ratios = [float(r) for r in ratios]
    if len(ratios) != 3 or not all(0 < r < np.inf for r in ratios):
        raise ValueError(f"need three positive finite ratios, got {ratios}")
    total = sum(ratios)
    t = series.length
    # Each share's numerator t * ratio is at most t * total.
    if not np.isfinite(t * total):
        raise ValueError(f"ratios {ratios} are too large: {t} rows times their sum overflows")
    n_val = int(t * ratios[1] / total)
    n_test = int(t * ratios[2] / total)
    n_train = t - n_val - n_test
    bounds = (0, n_train, n_train + n_val, t)
    pieces = []
    for name, lo, hi in zip(("train", "val", "test"), bounds, bounds[1:]):
        if hi - lo < min_slice_len:
            raise ValueError(
                f"{name} slice has {hi - lo} rows, fewer than the required {min_slice_len}")
        pieces.append(series.observations[lo:hi])
    return tuple(pieces)


@dataclass
class Standardizer:
    """Per-channel affine map z = (x - mean) / std, fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, observations: np.ndarray) -> np.ndarray:
        """Standardize into a new Fortran-ordered (channel-major) array.

        Each channel's rows are contiguous, so make_windows' views run along
        memory and a batch gathered from them by index is already the
        C-contiguous (batch, channel, length) array the attention layer
        computes on. A finite cell too large to standardize is a ValueError.
        """
        observations = np.asarray(observations, dtype=np.float64)
        if observations.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"{observations.shape[-1]} channels, standardizer has {self.mean.shape[0]}")
        with np.errstate(over="ignore"):
            z = np.subtract(observations, self.mean, order="F")
            z /= self.std
        _check_channels_finite(z, "standardized value")
        return z


def _check_channels_finite(values: np.ndarray, what: str) -> None:
    """Raise naming the first channel of a (..., C) array that overflowed float64."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(-1, values.shape[-1])).all(axis=0))
    if bad.size:
        raise ValueError(f"channel {int(bad[0])}: {what} overflows float64; "
                         "its values are too large, rescale them")


def _channel_stats(observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std; finite cells can overflow them (1e308 squared), an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = observations.mean(axis=0)
        std = observations.std(axis=0)
    _check_channels_finite(np.stack([mean, std]), "mean or std")
    return mean, std


def fit_standardizer(observations: np.ndarray) -> Standardizer:
    """Fit per-channel mean/std; degenerate (constant) or overflowing channels are an error."""
    observations = np.asarray(observations)
    if observations.ndim != 2 or observations.shape[0] == 0:
        raise ValueError("need a nonempty T x C matrix to fit")
    mean, std = _channel_stats(observations)
    flat = np.flatnonzero(std <= 1e-12)
    if flat.size:
        raise ValueError(f"channel {int(flat[0])} has (near-)zero variance, cannot standardize")
    return Standardizer(mean, std)


@dataclass
class WindowedDataset:
    """Aligned (input, target) window pairs: X is N x C x L, Y is N x C x O."""

    inputs: np.ndarray
    targets: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]

    @property
    def channels(self) -> int:
        return self.inputs.shape[1]

    @property
    def lookback(self) -> int:
        return self.inputs.shape[2]

    @property
    def horizon(self) -> int:
        return self.targets.shape[2]


def make_windows(observations: np.ndarray, lookback: int, horizon: int) -> WindowedDataset:
    """Every L-in / O-out window pair of a T x C array, one per start step.

    Each target window starts exactly where its input window ends, so there
    are T - L - O + 1 pairs. Inputs and targets are read-only views of the
    array, so no window is copied; indexing a batch out of them makes the
    copy. On a channel-major array, as Standardizer.apply returns, every
    window's length axis is contiguous and that copy comes out C-contiguous.
    """
    observations = np.asarray(observations)
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be positive")
    t = observations.shape[0]
    if t < lookback + horizon:
        raise ValueError(
            f"series of length {t} too short for lookback {lookback} + horizon {horizon}")
    inputs = sliding_window_view(observations, lookback, axis=0)[:t - lookback - horizon + 1]
    targets = sliding_window_view(observations[lookback:], horizon, axis=0)
    return WindowedDataset(inputs, targets)


def series_summary(series: RawSeries, splits) -> dict:
    """JSON-ready description: shape, per-channel stats and split sizes.

    A huge cell outside the training slice overflows only these whole-series
    stats, and is the same error as in fit_standardizer.
    """
    means, stds = _channel_stats(series.observations)
    return {
        "length": series.length,
        "channels": series.channels,
        "channel_names": list(series.channel_names),
        "channel_means": [float(m) for m in means],
        "channel_stds": [float(s) for s in stds],
        "split_sizes": {name: len(piece) for name, piece in zip(("train", "val", "test"), splits)},
    }
