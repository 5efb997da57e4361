"""Dataset ingestion and preparation for the forecaster.

Covers CSV loading with strict validation, chronological train/val/test
splitting, per-channel standardization fitted on the training slice only,
sliding-window generation, and the CSV writer every artifact goes through.
Everything stays in memory; input files are never mutated.

A clean CSV (no quote, no lone CR, no ragged, blank, NaN or infinite cell,
timestamps of one kind and strictly increasing) is read in one np.loadtxt
call for the values and one pass over the timestamp column. Every other
file is read row by row through csv.reader, with Python's float() of each
stripped cell; that reader alone reports errors, each at the first fault in
file order, and forward-fills missing cells. Both readers decode UTF-8,
drop a leading byte-order mark, as Excel's "CSV UTF-8" writes, and check
each timestamp's order as they parse it; a series keeps the values and the
channel names, and no timestamp. From the split on, every stage takes and
returns plain (rows, C) float64 arrays.
The split slices are views of the series' observations, and windows are
read-only views of a standardized, channel-major slice, so windowing a T x C
series costs O(T*C) memory, not O(N*C*(L+O)) for N windows.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FILL_POLICIES = ("reject", "ffill")


class SettingError(ValueError):
    """A data setting's value that cannot be used; `key` names the setting, such as "split"."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass
class RawSeries:
    """A multivariate series: a T x C matrix of values in time order and its
    C channel names. The readers check a file's timestamps and keep none."""

    observations: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.observations.ndim != 2:
            raise ValueError("observations must be a T x C matrix")
        if len(self.channel_names) != self.channels:
            raise ValueError(f"{len(self.channel_names)} names for {self.channels} channels")

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


def _columns(header: list[str], date_column: str | int) -> tuple[int, list[str]]:
    """(timestamp column index, channel names in file order) for a stripped header."""
    if isinstance(date_column, int):
        ts_index = date_column
        if not 0 <= ts_index < len(header):
            raise SettingError("date_column", f"timestamp column index {ts_index} out of range")
    else:
        matches = header.count(date_column)
        if matches != 1:
            raise SettingError("date_column",
                               f"{matches or 'no'} columns named {date_column!r} in header")
        ts_index = header.index(date_column)
    return ts_index, [h for i, h in enumerate(header) if i != ts_index]


def _order_fault(a, b) -> str | None:
    """Why timestamp b cannot follow a: not of a's kind or not above it; else None."""
    if type(a) is not type(b):
        return "timestamp type differs from previous rows"
    try:
        return None if a < b else "timestamps not strictly increasing"
    except TypeError:
        return "timestamp mixes naive and offset-aware times with the previous row"


def load_csv(path, date_column: str | int = 0, fill_policy: str = "reject") -> RawSeries:
    """Read a CSV whose rows are (timestamp, value, value, ...).

    The timestamp column is selected by header name or position; every other
    column becomes a channel, in file order. Timestamps may be epoch numbers
    or ISO-8601, but not a mix of naive and offset-aware ISO times. Missing
    cells (empty or NaN) are rejected by default; fill_policy="ffill" copies
    the previous row's value instead. Infinite cells are always rejected.

    A clean file is parsed column by column (see _read_clean), any other row
    by row (see _read_validating), to the same series.
    """
    if fill_policy not in FILL_POLICIES:
        raise SettingError("fill_policy",
                           f"fill_policy must be one of {FILL_POLICIES}, got {fill_policy!r}")
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
    timestamps in strictly increasing order, checked on that parsed list. On
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
    stamps = _parse_stamp_column(lines, ts_index)
    try:
        if stamps is None or not all(map(operator.lt, stamps, stamps[1:])):
            return None
    except TypeError:  # naive and offset-aware times mixed
        return None
    return RawSeries(observations, channel_names)


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
    """csv.reader and float() of each stripped cell, for any file. Each row is
    checked as it is read: its cell count, its timestamp and that timestamp's
    order after the previous one, then its cells from left to right; so every
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

        previous = None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            stamp = _parse_timestamp(row.pop(ts_index), line_no)
            reason = _order_fault(previous, stamp) if rows else None
            if reason is not None:
                raise ValueError(f"line {line_no}: {reason}")
            previous = stamp
            try:  # the usual row: all cells finite numbers, checked by one sum
                values = [float(cell.strip()) for cell in row]
            except ValueError:  # a blank or unparseable cell
                values = [math.nan]
            if not math.isfinite(sum(values)):  # a NaN or infinite cell, or the sum overflowed
                values = []
                for col, (name, cell) in enumerate(zip(channel_names, row)):
                    cell = cell.strip()
                    try:
                        value = float(cell or "nan")
                    except ValueError:
                        raise ValueError(f"line {line_no}: unparseable value {cell!r} "
                                         f"in column {name!r}") from None
                    if math.isnan(value):
                        if fill_policy == "reject" or not rows:
                            raise ValueError(f"line {line_no}: missing value in column {name!r}")
                        value = rows[-1][col]
                    elif math.isinf(value):
                        raise ValueError(f"line {line_no}: infinite value in column {name!r}")
                    values.append(value)
            rows.append(values)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    return RawSeries(np.array(rows, dtype=np.float64), channel_names)


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
        raise SettingError("split", f"need three positive finite ratios, got {ratios}")
    total = sum(ratios)
    t = series.length
    # Each share's numerator t * ratio is at most t * total.
    if not np.isfinite(t * total):
        raise SettingError("split",
                           f"ratios {ratios} are too large: {t} rows times their sum overflows")
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
