"""Tests for dataset loading, splitting, scaling, windowing, and fixtures."""

import csv
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fecam.data import (
    RawSeries,
    Standardizer,
    _parse_stamp_column,
    _parse_timestamp,
    _read_clean,
    _read_validating,
    chronological_split,
    fit_standardizer,
    load_csv,
    make_windows,
    series_summary,
    write_csv,
)
from fecam.spectral import ORTHO, dct_forward

from synth_series import synth_series


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- RawSeries ---------------------------------------------------------------

def test_series_validates_shapes_and_order():
    with pytest.raises(ValueError, match="must be a T x C matrix"):
        RawSeries(np.zeros(3), ["a"])
    with pytest.raises(ValueError, match="1 names for 2 channels"):
        RawSeries(np.zeros((3, 2)), ["a"])
    # A series keeps no timestamps; the readers refuse each order fault,
    # and FAST_READ_CASES asserts every reason at the line that has it.
    messages = [case[4] for case in FAST_READ_CASES]
    for reason in ("timestamps not strictly increasing", "timestamp type differs",
                   "timestamp mixes naive and offset-aware"):
        assert any(reason in (message or "") for message in messages), reason


# --- load_csv ------------------------------------------------------------------

def test_load_small_file(tmp_path):
    path = write(tmp_path, "time,a,b\n0,1.0,4.0\n1,2.0,5.0\n2,3.0,6.0\n")
    series = load_csv(path)
    assert series.length == 3 and series.channels == 2
    assert series.channel_names == ["a", "b"]
    np.testing.assert_array_equal(series.observations,
                                  [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_load_ett_style_header(tmp_path):
    header = "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"
    rows = [f"2016-07-01 0{h}:00:00," + ",".join(str(h + k / 10) for k in range(7))
            for h in range(3)]
    series = load_csv(write(tmp_path, header + "\n" + "\n".join(rows) + "\n"),
                      date_column="date")
    assert series.channels == 7
    assert series.channel_names == ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
    assert series.observations[1, 6] == pytest.approx(1.6)


def test_missing_cell_rejected_with_line_number(tmp_path):
    path = write(tmp_path, "time,a,b\n0,1.0,4.0\n1,,5.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_nan_cell_counts_as_missing(tmp_path):
    path = write(tmp_path, "time,a\n0,1.0\n1,NaN\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)
    series = load_csv(path, fill_policy="ffill")
    np.testing.assert_array_equal(series.observations[:, 0], [1.0, 1.0])


def test_forward_fill_copies_previous_row(tmp_path):
    path = write(tmp_path, "time,a,b\n0,1.0,4.0\n1,,5.0\n2,3.0,\n")
    series = load_csv(path, fill_policy="ffill")
    np.testing.assert_array_equal(series.observations,
                                  [[1.0, 4.0], [1.0, 5.0], [3.0, 5.0]])


def test_first_row_missing_cannot_fill(tmp_path):
    path = write(tmp_path, "time,a\n0,\n1,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path, fill_policy="ffill")


def test_garbage_value_names_line_and_column(tmp_path):
    path = write(tmp_path, "time,a,b\n0,1.0,4.0\n1,oops,5.0\n")
    with pytest.raises(ValueError, match="line 3.*'a'"):
        load_csv(path)


def test_bad_timestamp_reported(tmp_path):
    path = write(tmp_path, "time,a\nnot-a-date,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_non_monotone_timestamps_rejected(tmp_path):
    path = write(tmp_path, "time,a\n0,1.0\n2,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="increasing"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
def test_infinite_cell_names_line_and_column(tmp_path, cell):
    # The blank line 3 is skipped but still counted in the reported line number.
    path = write(tmp_path, f"time,a,b\n0,1.0,4.0\n\n1,2.0,5.0\n2,3.0,{cell}\n")
    for policy in ("reject", "ffill"):
        with pytest.raises(ValueError, match="line 5.*'b'"):
            load_csv(path, fill_policy=policy)


def test_mixed_naive_and_aware_timestamps_rejected(tmp_path):
    path = write(tmp_path, "date,a\n2020-01-01T00:00,1.0\n2020-01-01T01:00+00:00,2.0\n")
    with pytest.raises(ValueError, match="line 3.*offset-aware"):
        load_csv(path)


@pytest.mark.parametrize("text", ["20160701", " 20160701 ", "0", "-5", "1e-05", "1E-05",
                                  "1467331200.5"])
def test_numeric_timestamps_stay_floats(text):
    # 20160701 is also a date to fromisoformat; numeric text must win.
    stamp = _parse_timestamp(text, 2)
    assert type(stamp) is float and stamp == float(text)


@pytest.mark.parametrize("text", [
    "2016-07-01", "2016-07-01 01:00:00", "2016-07-01T01:00:00+00:00",
    pytest.param("20160701T010000", marks=pytest.mark.skipif(
        sys.version_info < (3, 11), reason="fromisoformat reads the basic format from 3.11")),
])
def test_iso_timestamps_match_fromisoformat(text):
    stamp = _parse_timestamp(f" {text} ", 2)
    assert type(stamp) is datetime and stamp == datetime.fromisoformat(text)


@pytest.mark.parametrize("text", ["2016-13-01", "abc", "1e-0x"])
def test_unparseable_timestamp_message(text):
    with pytest.raises(ValueError, match=f"^line 7: unparseable timestamp {text!r}$"):
        _parse_timestamp(text, 7)


@pytest.mark.parametrize("policy", ["reject", "ffill"])
def test_whitespace_around_cells_loads_the_same_array(tmp_path, policy):
    # The blank cell in row 3 only makes the ffill file take the second, stripping pass.
    rows = [["0", "1.5", "-2"], ["1", "2.25", "3e2"], ["2", "", "4"]]
    if policy == "reject":
        rows[2][1] = "7"
    pads = [(" ", " "), ("\t", ""), ("", "  "), ("\xa0", "\u2003")]
    plain = "time,a,b\n" + "".join(",".join(r) + "\n" for r in rows)
    padded = "time,a,b\n" + "".join(
        ",".join([r[0]] + [f"{pads[(i + j) % 4][0]}{c}{pads[(i + j) % 4][1]}"
                           for j, c in enumerate(r[1:])]) + "\n"
        for i, r in enumerate(rows))
    expected = load_csv(write(tmp_path, plain, "plain.csv"), fill_policy=policy)
    series = load_csv(write(tmp_path, padded, "padded.csv"), fill_policy=policy)
    assert series.observations.tobytes() == expected.observations.tobytes()
    assert series.channel_names == expected.channel_names


def reference_load(path, fill_policy):
    """Per-cell float() loader with load_csv's rules, for files with valid cells.

    Returns (observations, None), or (None, message) for the first missing
    cell that the policy cannot fill.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            values = []
            for col, cell in enumerate(row[1:]):
                value = float(cell) if cell.strip() else float("nan")
                if np.isnan(value):
                    if fill_policy == "reject" or not rows:
                        return None, f"line {line_no}: missing value in column 'ch{col}'"
                    value = rows[-1][col]
                values.append(value)
            rows.append(values)
    return np.array(rows), None


def valid_cell(rng, value, clean=False):
    """One of several spellings that float() reads back as exactly `value`.

    With clean=True, only spellings the fast read takes: no quotes, no underscores.
    """
    spellings = [repr(value), f"  {value!r} ", f"\t{value!r}", f'"{value!r}"',
                 f'" {value!r} "', f"{value:+.17e}", f"{value:.17E}"]
    if value == int(value):
        n = int(value)
        spellings += [f"{n}.", f"{n}_0e-1", f"{n:+}e0"]
        if n == 0:
            spellings += ["-0", "0_0", "-0."]
    if 0 < value < 1:
        spellings.append(repr(value)[1:])  # ".5"
    if clean:
        spellings = [s for s in spellings if '"' not in s and "_" not in s]
    return spellings[rng.integers(len(spellings))]


MISSING_SPELLINGS = ("", " ", '""', "NaN", "nan", "-nan")


def random_csv(rng, rows, channels, kind, holes, clean=False):
    if kind == 0:
        values = rng.normal(size=(rows, channels)) * 10.0
    elif kind == 1:
        values = rng.integers(-20, 20, size=(rows, channels)).astype(float)
    else:
        values = rng.uniform(0.0, 1.0, size=(rows, channels))
    iso = bool(rng.integers(2))
    lines = ["stamp," + ",".join(f"ch{c}" for c in range(channels))]
    for r in range(rows):
        cells = [valid_cell(rng, float(v), clean) for v in values[r]]
        for c in range(channels):
            # Whole missing rows, runs down column 0, and scattered cells.
            if holes and r > 0 and (r % 7 == 3 or (c == 0 and r % 11 in (5, 6, 7))
                                    or rng.random() < 0.1):
                cells[c] = MISSING_SPELLINGS[rng.integers(len(MISSING_SPELLINGS))]
        stamp = (f"2020-01-{1 + r // 24:02d}T{r % 24:02d}:00" if iso
                 else str(3 * r + rng.integers(3)))
        lines.append(",".join([stamp, *cells]))
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(12))
def test_bulk_parse_matches_per_cell_reference(tmp_path, seed):
    # Each seed gives a file in every spelling, which the fast read must
    # decline when a cell is missing, and a clean file of the same shape,
    # which it must take; whatever reads a file must match the reference.
    rng = np.random.default_rng(seed)
    rows, channels = int(rng.integers(2, 60)), int(rng.integers(1, 5))
    text = random_csv(rng, rows, channels, kind=seed % 3, holes=seed % 2)
    clean_text = random_csv(np.random.default_rng([seed, 1]), rows, channels,
                            kind=seed % 3, holes=0, clean=True)
    for name, text in (("any.csv", text), ("clean.csv", clean_text)):
        path = write(tmp_path, text, name)
        fast = _read_clean(path, 0)
        if name == "clean.csv":
            assert fast is not None
        for policy in ("reject", "ffill"):
            observations, message = reference_load(path, policy)
            if message is not None:
                for read in (load_csv, _read_validating):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        read(path, 0, policy)
                assert fast is None
                continue
            for series in (load_csv(path, 0, policy), _read_validating(path, 0, policy), fast):
                if series is None:
                    continue
                assert series.channel_names == [f"ch{c}" for c in range(channels)]
                assert series.observations.dtype == np.float64
                assert series.observations.tobytes() == observations.tobytes()


def read_outcome(read, *args):
    """What a reader gives for a file: (observation bytes, names) or its error."""
    try:
        series = read(*args)
    except ValueError as exc:
        return str(exc)
    return series.observations.tobytes(), series.channel_names


# (id, file text, date column, whether the fast read takes the file, and
# load_csv's outcome under the reject policy: None when it loads, else the
# message). Every outcome is the one load_csv gave before the fast read existed.
FAST_READ_CASES = [
    ("clean", "time,a,b\n0,1.5,-2\n\n1, 2.25 ,3e2\n", 0, True, None),
    ("crlf-and-lf", "time,a\r\n0,1\n1,2\r\n", 0, True, None),
    ("padded-with-separators", "time,a\n0,\x1c1\x1f\n1,\u30002\n", 0, True, None),
    ("bom-header", "\ufefftime,a\n0,1\n1,2\n", 0, True, None),
    ("bom-header-by-name", "\ufefftime,a\n0,1\n1,2\n", "time", True, None),
    ("bom-on-channel", "\ufeffa,time\n1,0\n2,1\n", "time", True, None),
    ("quoted", 'time,a\n0,"1.5"\n1," 2"\n', 0, False, None),
    ("quoted-header", 'time,"a",b\n0,1,2\n', 0, False, None),
    ("cr-only", "time,a\r0,1\r1,2\r", 0, False, None),
    ("cr-in-header", "time,a\rb,c\n0,1,2\n", 0, False, "line 2: unparseable timestamp 'b'"),
    ("crlf-and-cr", "time,a\r\n0,1\r1,2\r\n", 0, False, None),
    ("long-row", "time,a\n0,1\n1,2,3\n", 0, False, "line 3: expected 2 cells, got 3"),
    ("short-row", "time,a,b\n0,1,2\n1,2\n", 0, False, "line 3: expected 3 cells, got 2"),
    ("long-row-last-column-stamp", "a,time\n1,0\n2,1,7\n", 1, False,
     "line 3: expected 2 cells, got 3"),
    # A short row balanced by a long one has the header's comma total; the
    # short row ends before its last cell, a value or the stamp.
    ("short-row-balanced", "time,a,b\n0,1,2\n1,2\n2,3,4,5\n", 0, False,
     "line 3: expected 3 cells, got 2"),
    ("short-row-balanced-last-column-stamp", "a,b,time\n1,2,0\n3,4\n5,6,2,9\n", 2, False,
     "line 3: expected 3 cells, got 2"),
    ("short-row-balanced-last-column-iso-stamp",
     "a,b,time\n1,2,2016-07-01 00:00:00\n3,4\n5,6,2016-07-01 02:00:00,9\n", 2, False,
     "line 3: expected 3 cells, got 2"),
    ("iso-stamp-not-first", "a,time,b\n1,2016-07-01 00:00:00,2\n3,2016-07-01 01:00:00,4\n",
     1, True, None),
    ("iso-crlf", "date,a\r\n2016-07-01 00:00:00,1\r\n2016-07-01 01:00:00,2\r\n", 0, True, None),
    ("whitespace-line", "time,a\n0,1\n  \n1,2\n", 0, False, "line 3: expected 2 cells, got 1"),
    ("blank-cell", "time,a\n0,1\n1,\n", 0, False, "line 3: missing value in column 'a'"),
    ("nan-cell", "time,a\n0,1\n1,nan\n", 0, False, "line 3: missing value in column 'a'"),
    ("inf-cell", "time,a\n0,1\n1,inf\n", 0, False, "line 3: infinite value in column 'a'"),
    ("overflowing-cell", "time,a\n0,1\n1,1e999\n", 0, False,
     "line 3: infinite value in column 'a'"),
    ("hash-in-cell", "time,a\n0,1#2\n1,2\n", 0, False,
     "line 2: unparseable value '1#2' in column 'a'"),
    ("underscore", "time,a\n0,1_0\n1,2\n", 0, False, None),
    ("unicode-digit", "time,a\n0,\u0661\n1,2\n", 0, False, None),
    ("naive-and-aware", "time,a\n2020-01-01T00:00,1\n2020-01-01T01:00+00:00,2\n", 0, False,
     "line 3: timestamp mixes naive and offset-aware times with the previous row"),
    ("number-and-iso", "time,a\n0,1\n2020-01-01T00:00,2\n", 0, False,
     "line 3: timestamp type differs from previous rows"),
    ("not-increasing", "time,a\n1,1\n1,2\n", 0, False, "line 3: timestamps not strictly increasing"),
    ("bad-stamp", "time,a\n0,1\nnoon,2\n", 0, False, "line 3: unparseable timestamp 'noon'"),
    ("header-only", "time,a\n", 0, False, "{path}: no data rows"),
    ("empty", "", 0, False, "{path}: empty file"),
    ("one-column", "time\n0\n", 0, False,
     "{path}: need a timestamp column plus at least one channel"),
    ("column-out-of-range", "time,a\n0,1\n", 2, False, "timestamp column index 2 out of range"),
]


@pytest.mark.parametrize("text, date_column, accepted, expected",
                         [case[1:] for case in FAST_READ_CASES],
                         ids=[case[0] for case in FAST_READ_CASES])
def test_fast_read_takes_only_clean_files_and_agrees_with_the_validating_reader(
        tmp_path, text, date_column, accepted, expected):
    path = write(tmp_path, text)
    fast = _read_clean(path, date_column)
    assert (fast is not None) == accepted
    for policy in ("reject", "ffill"):
        outcome = read_outcome(load_csv, path, date_column, policy)
        assert outcome == read_outcome(_read_validating, path, date_column, policy)
        if fast is not None:
            assert read_outcome(_read_clean, path, date_column) == outcome
    outcome = read_outcome(load_csv, path, date_column)
    if expected is None:
        assert not isinstance(outcome, str), outcome
    else:
        assert outcome == expected.format(path=path)


# Files with two faults; each row is checked whole before the next is read,
# so the error names the earlier line, whatever the kinds of the two faults.
TWO_FAULT_CASES = [
    ("infinite-then-ragged", "time,a\n0,inf\n1,2,3\n",
     "line 2: infinite value in column 'a'"),
    ("missing-then-unparseable", "time,a\n0,1\n1,\n2,x\n",
     "line 3: missing value in column 'a'"),
    ("infinite-then-not-increasing", "time,a\n0,1\n1,inf\n1,2\n",
     "line 3: infinite value in column 'a'"),
    ("unparseable-then-bad-stamp", "time,a\n0,x\nnoon,2\n",
     "line 2: unparseable value 'x' in column 'a'"),
    ("not-increasing-then-unparseable", 'time,a\n1,1\n0,2\n2,"q"\n',
     "line 3: timestamps not strictly increasing"),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in TWO_FAULT_CASES],
                         ids=[case[0] for case in TWO_FAULT_CASES])
def test_the_first_fault_in_file_order_is_the_error(tmp_path, text, expected):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=f"^{expected}$"):
        load_csv(path)


def test_byte_order_mark_stays_out_of_the_channel_names(tmp_path):
    # Excel's "CSV UTF-8" export starts the header with one; FAST_READ_CASES
    # shows both readers agree on such a file.
    path = write(tmp_path, "\ufeffa,time\n1,0\n2,1\n")
    assert load_csv(path, date_column="time").channel_names == ["a"]


def test_fast_read_declines_lines_past_the_csv_field_limit(tmp_path):
    # csv.reader refuses such a cell, and load_csv reports that as an input
    # error naming the line; the cell reads as 1.0, so nothing but the length
    # declines it.
    path = write(tmp_path, "time,a\n0," + "0" * csv.field_size_limit() + "1\n")
    assert _read_clean(path, 0) is None
    with pytest.raises(ValueError, match="line 2: field larger than field limit"):
        load_csv(path)


def number_stamp(rng, value):
    """One of several spellings of a numeric stamp that float() reads as `value`."""
    spellings = [repr(value), f" {value!r}\t", f"{value:+}", f"{value:.17e}", f"{value:.17E}"]
    if value == int(value):
        spellings += [f"{int(value):_}", f"{int(value)}_0e-1"]
    return spellings[rng.integers(len(spellings))]


def iso_stamp(rng, when):
    """One of several ISO-8601 spellings of the datetime `when`, basic ones included."""
    spellings = [when.isoformat(sep=" "), when.isoformat(), f" {when.isoformat()} ",
                 when.isoformat(sep=" ", timespec="milliseconds"),
                 when.isoformat(timespec="microseconds")]
    if when.tzinfo is timezone.utc:
        spellings.append(when.replace(tzinfo=None).isoformat() + "Z")
    if when.time() == datetime.min.time() and when.tzinfo is None:
        spellings += [when.date().isoformat(), when.strftime("%Y%m%d")]
    if when.minute == when.second == when.microsecond == 0 and when.tzinfo is None:
        spellings.append(when.strftime("%Y%m%dT%H"))
    return spellings[rng.integers(len(spellings))]


# Stamp columns by kind: plain numbers and plain "YYYY-MM-DD HH:MM:SS" times,
# which the fast read must take; numbers and ISO times in every spelling
# above, with stray nan/inf or 20160701 cells; naive daily ISO times, where
# the basic-format spellings are common; and mixes of numbers and ISO times.
STAMP_KINDS = ("numbers", "plain-iso", "any-number", "any-iso", "daily-iso", "mixed")


def stamp_column(rng, rows, kind):
    step = [1.0, 0.5, 1e-5, 3600.0][rng.integers(4)]
    numbers = float(rng.integers(-50, 50)) + step * np.arange(rows)
    offset = [None, timezone.utc, timezone(timedelta(hours=5, minutes=30))][rng.integers(3)]
    unit = [timedelta(hours=1), timedelta(days=1), timedelta(seconds=1.5)][rng.integers(3)]
    if kind == "daily-iso":
        offset, unit = None, timedelta(days=1)
    start = datetime(2016, 6, 30, tzinfo=offset)
    times = [start + i * unit for i in range(rows)]
    if kind == "numbers":
        return [repr(float(v)) for v in numbers]
    if kind == "plain-iso":
        return [t.replace(tzinfo=None).isoformat(sep=" ", timespec="seconds") for t in times]
    column = [number_stamp(rng, float(v))
              if kind == "any-number" or (kind == "mixed" and rng.random() < 0.5)
              else iso_stamp(rng, t) for v, t in zip(numbers, times)]
    if kind != "daily-iso" and rng.random() < 0.5:
        column[rng.integers(rows)] = ["nan", " inf", "-inf", "20160701"][rng.integers(4)]
    return column


@pytest.mark.parametrize("seed", range(48))
def test_bulk_stamp_parse_matches_the_per_row_parse(tmp_path, seed):
    # The fast read parses the stamp column in one float() pass or one
    # fromisoformat pass; on a file it takes, that must give exactly the
    # per-row parse's stamps (value and type), and it must decline every
    # file the validating reader refuses.
    rng = np.random.default_rng([seed, 14])
    kind = STAMP_KINDS[seed % len(STAMP_KINDS)]
    rows = int(rng.integers(2, 40))
    column = stamp_column(rng, rows, kind)
    lines = [f"{c},{i}" for i, c in enumerate(column)]
    path = write(tmp_path, "date,a\n" + "".join(line + "\n" for line in lines))
    fast = _read_clean(path, 0)
    if kind in ("numbers", "plain-iso"):
        assert fast is not None
    try:
        _read_validating(path, 0, "reject")
    except ValueError:
        assert fast is None
        return
    if fast is not None:
        expected = [_parse_timestamp(cell, line_no) for line_no, cell in enumerate(column, 2)]
        stamps = _parse_stamp_column(lines, 0)
        assert [(type(t), t) for t in stamps] == [(type(t), t) for t in expected]


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "time,a,b\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_structural_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv")
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "", "empty.csv"))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "time\n0\n", "one_col.csv"))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "time,a\n", "no_rows.csv"))
    with pytest.raises(ValueError):
        load_csv(write(tmp_path, "time,a\n0,1\n"), fill_policy="interpolate")


def test_timestamp_column_by_position(tmp_path):
    path = write(tmp_path, "a,time,b\n1.0,0,4.0\n2.0,1,5.0\n")
    series = load_csv(path, date_column=1)
    assert series.channel_names == ["a", "b"]
    np.testing.assert_array_equal(series.observations, [[1.0, 4.0], [2.0, 5.0]])
    with pytest.raises(ValueError):
        load_csv(path, date_column="missing")
    with pytest.raises(ValueError):
        load_csv(path, date_column=7)


# --- write_csv ---------------------------------------------------------------------

def test_write_csv_formats_cells_with_lf_endings(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(5, 1.0 / 3.0, 2.5e-13), (10, np.float64(-7.0), 0.0)]
    write_csv(path, ["n", "dct_err", "dft_err"], rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == "n,dct_err,dft_err\n5,0.333333333,2.5e-13\n10,-7,0\n"
    # Nine significant digits round-trip through load_csv to ~1e-9 relative.
    reread = load_csv(path)
    assert reread.channel_names == ["dct_err", "dft_err"]
    np.testing.assert_allclose(reread.observations, [row[1:] for row in rows], rtol=1e-8)


# --- chronological_split ----------------------------------------------------------

def make_series(t, c=2):
    obs = np.arange(t * c, dtype=float).reshape(t, c)
    return RawSeries(obs, [f"ch{i}" for i in range(c)])


def test_split_literal_seven_two_two():
    train, val, test = chronological_split(make_series(100), (7, 2, 2))
    assert (len(train), len(val), len(test)) == (64, 18, 18)


def test_split_three_one_one_exact():
    train, val, test = chronological_split(make_series(10), (3, 1, 1))
    assert (len(train), len(val), len(test)) == (6, 2, 2)


def test_split_is_a_partition():
    series = make_series(101, 3)
    pieces = chronological_split(series, (0.7, 0.1, 0.2))
    np.testing.assert_array_equal(np.vstack(pieces), series.observations)
    for piece in pieces:
        assert np.shares_memory(piece, series.observations)


def test_split_minimum_length_enforced():
    with pytest.raises(ValueError, match="val slice has 18 rows"):
        chronological_split(make_series(100), (7, 2, 2), min_slice_len=19)
    chronological_split(make_series(100), (7, 2, 2), min_slice_len=18)


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        chronological_split(make_series(10), (1, 1))
    with pytest.raises(ValueError):
        chronological_split(make_series(10), (1, 0, 1))
    nan, inf = float("nan"), float("inf")
    for ratios, message in [
        ((nan, 1, 1), r"need three positive finite ratios, got \[nan, 1.0, 1.0\]"),
        ((1, 1, inf), r"need three positive finite ratios, got \[1.0, 1.0, inf\]"),
        ((inf, 1, 1), r"need three positive finite ratios, got \[inf, 1.0, 1.0\]"),
        ((1e308, 1e308, 1), r"ratios \[1e\+308, 1e\+308, 1.0\] are too large: 100 rows"),
        ((1, 1e308, 1), r"ratios \[1.0, 1e\+308, 1.0\] are too large: 100 rows"),
    ]:
        with pytest.raises(ValueError, match=message):
            chronological_split(make_series(100), ratios)


# --- standardizer -------------------------------------------------------------------

def test_fit_centers_and_scales_train():
    rng = np.random.default_rng(3)
    obs = rng.normal(5.0, 3.0, size=(200, 4))
    scaled = fit_standardizer(obs).apply(obs)
    assert np.max(np.abs(scaled.mean(axis=0))) < 1e-9
    assert np.max(np.abs(scaled.std(axis=0) - 1.0)) < 1e-9


def test_val_test_use_train_statistics():
    series = make_series(100, 2)
    train, val, test = chronological_split(series, (7, 2, 2))
    scaler = fit_standardizer(train)
    scaled_test = scaler.apply(test)
    # The ramp keeps growing, so test rows standardized by train stats sit
    # far from zero mean.
    assert abs(scaled_test.mean()) > 1.0


def test_changing_test_slice_never_changes_scaler():
    series = make_series(100, 2)
    train, _, test = chronological_split(series, (7, 2, 2))
    before = fit_standardizer(train)
    test[:] = 1e6
    after = fit_standardizer(train)
    np.testing.assert_array_equal(before.mean, after.mean)
    np.testing.assert_array_equal(before.std, after.std)


def test_degenerate_channel_named():
    obs = np.ones((10, 3))
    obs[:, 0] = np.arange(10)
    obs[:, 2] = np.arange(10) * 2
    with pytest.raises(ValueError, match="channel 1"):
        fit_standardizer(obs)


def test_channel_whose_statistics_overflow_is_named():
    # Every cell is finite, but 1e308 squared is not: the std overflows.
    obs = np.ones((10, 3))
    obs[:, 0] = np.arange(10)
    obs[:, 2] = np.arange(10) * 2
    obs[4, 1] = 1e308
    with pytest.raises(ValueError, match="channel 1: mean or std overflows"):
        fit_standardizer(obs)
    obs[:, 1] = 1.7e308
    obs[0, 1] = -1.7e308
    with pytest.raises(ValueError, match="channel 1: mean or std overflows"):
        fit_standardizer(obs)


def test_transform_rejects_values_that_overflow_when_standardized():
    scaler = Standardizer(np.zeros(2), np.array([1.0, 0.5]))
    np.testing.assert_array_equal(scaler.apply([[1e308, 1.0]]), [[1e308, 2.0]])
    with pytest.raises(ValueError, match="channel 1: standardized value overflows"):
        scaler.apply([[1.0, 1e308]])


def test_transform_is_the_plain_formula_in_channel_major_memory():
    rng = np.random.default_rng(5)
    obs = rng.normal(3.0, 2.0, size=(50, 4))
    scaler = fit_standardizer(obs[:30])
    for part in (obs, obs[30:], obs[10:40:3], obs[7]):
        scaled = scaler.apply(part)
        assert scaled.tobytes() == ((part - scaler.mean) / scaler.std).tobytes()
        assert scaled.flags.f_contiguous and not np.shares_memory(scaled, obs)


def test_transform_channel_count_checked():
    scaler = Standardizer(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        scaler.apply(np.ones((5, 4)))


# --- windows ---------------------------------------------------------------------------

def test_window_count_and_contents():
    series = make_series(10, 2)
    ds = make_windows(series.observations, lookback=3, horizon=2)
    assert ds.n_windows == 6
    np.testing.assert_array_equal(ds.inputs[0], series.observations[0:3].T)
    np.testing.assert_array_equal(ds.targets[0], series.observations[3:5].T)


def test_targets_start_where_inputs_end():
    series = make_series(30, 1)
    ds = make_windows(series.observations, lookback=4, horizon=3)
    for n in range(ds.n_windows):
        assert ds.inputs[n, 0, -1] + 1 == ds.targets[n, 0, 0]  # values are 0,1,2,...


def test_window_count_formula_across_sizes():
    for t, lookback, horizon in [(10, 3, 2), (50, 7, 7), (96 + 96, 96, 96)]:
        ds = make_windows(make_series(t, 1).observations, lookback, horizon)
        assert ds.n_windows == t - lookback - horizon + 1


@pytest.mark.parametrize("t, channels, lookback, horizon, step", [
    (10, 2, 3, 2, 1), (50, 1, 7, 7, 3), (192, 3, 96, 96, 1), (41, 4, 5, 1, 4), (30, 2, 1, 29, 1),
])
def test_windows_are_read_only_views_of_the_series(t, channels, lookback, horizon, step):
    # Every step-th pair, which a caller takes by slicing, is still a view.
    series = synth_series("sinusoid_mix", t, channels, noise_std=0.1, seed=t)
    obs = series.observations
    starts = range(0, t - lookback - horizon + 1, step)
    ds = make_windows(obs, lookback, horizon)
    inputs, targets = ds.inputs[::step], ds.targets[::step]
    np.testing.assert_array_equal(inputs, np.stack([obs[s:s + lookback].T for s in starts]))
    np.testing.assert_array_equal(
        targets, np.stack([obs[s + lookback:s + lookback + horizon].T for s in starts]))
    for windows in (inputs, targets):
        assert np.shares_memory(windows, obs)
        with pytest.raises(ValueError, match="read-only"):
            windows[0, 0, 0] = 1.0


def test_windowing_an_etth2_sized_series_allocates_no_windows():
    # 17,420 x 7 at L = O = 96: copied windows would take about 178 MiB.
    series = synth_series("ramp", 17_420, 7)
    tracemalloc.start()
    try:
        ds = make_windows(series.observations, 96, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_windows == 17_420 - 96 - 96 + 1
    assert peak < 2**20


def test_reading_an_etth2_sized_csv_holds_no_column_of_cells(tmp_path):
    # 17,420 x 7 hourly ISO rows, as the ETT exports write them. The read
    # holds the text or its lines, the parsed stamps and the values; a list
    # of cut stamp cells or of line remainders would add about a file's size.
    values = synth_series("sinusoid_mix", 17_420, 7, noise_std=0.3, seed=0).observations
    start = datetime(2016, 7, 1)
    lines = ["date," + ",".join(f"ch{c}" for c in range(7))]
    lines += [f"{start + timedelta(hours=i)},{','.join(f'{v:.6f}' for v in row)}"
              for i, row in enumerate(values.tolist())]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert _read_clean(path, 0) is not None
    tracemalloc.start()
    try:
        series = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.observations.shape == (17_420, 7)
    assert peak < 3.2 * path.stat().st_size


def test_standardized_windows_are_channel_major_and_gather_contiguously():
    # The tiny_pipeline data of the forecaster tests: scaler fitted on the
    # train slice, applied to each split.
    series = synth_series("sinusoid_mix", 400, 3, noise_std=0.1, seed=0)
    splits = chronological_split(series, (7, 2, 2), min_slice_len=24)
    scaler = fit_standardizer(splits[0])
    idx = np.random.default_rng(2).permutation(49)[:32]  # val and test have 49 windows
    for split in splits:
        scaled = scaler.apply(split)
        assert scaled.flags.f_contiguous
        ds = make_windows(scaled, 16, 8)
        want = make_windows(np.ascontiguousarray(scaled), 16, 8)
        assert ds.inputs.tobytes() == want.inputs.tobytes()
        assert ds.targets.tobytes() == want.targets.tobytes()
        for windows in (ds.inputs, ds.targets):
            assert windows[idx].flags.c_contiguous
            # Each window's length axis is contiguous in the series' memory.
            assert windows.strides[2] == windows.itemsize


def test_too_short_series_rejected():
    with pytest.raises(ValueError):
        make_windows(make_series(5, 1).observations, 4, 2)
    with pytest.raises(ValueError):
        make_windows(make_series(10, 1).observations, 0, 2)


# --- synthetic fixtures -------------------------------------------------------------------

def test_synth_is_bit_deterministic():
    a = synth_series("sinusoid_mix", 64, 3, noise_std=0.3, seed=11)
    b = synth_series("sinusoid_mix", 64, 3, noise_std=0.3, seed=11)
    np.testing.assert_array_equal(a.observations, b.observations)
    c = synth_series("sinusoid_mix", 64, 3, noise_std=0.3, seed=12)
    assert not np.array_equal(a.observations, c.observations)


def test_ramp_strictly_increases():
    series = synth_series("ramp", 40, 3)
    assert np.all(np.diff(series.observations, axis=0) > 0)


def test_square_is_two_valued():
    series = synth_series("square", 80, 3)
    assert set(np.unique(series.observations)) == {-1.0, 1.0}


def test_sinusoid_mix_energy_concentrates_low():
    series = synth_series("sinusoid_mix", 300, 4)
    for c in range(4):
        for start in (0, 100, 200):
            window = series.observations[start:start + 96, c]
            coeffs = dct_forward(window, ORTHO).coefficients
            energy = coeffs ** 2
            assert energy[:24].sum() / energy.sum() >= 0.90


def test_synth_channels_are_not_rescaled_copies():
    series = synth_series("sinusoid_mix", 200, 3)
    a, b = series.observations[:, 0], series.observations[:, 1]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.9


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_series("sawtooth", 10, 1)
    with pytest.raises(ValueError):
        synth_series("ramp", 0, 1)


# --- summary -------------------------------------------------------------------------------

def test_summary_reports_shape_and_splits():
    series = make_series(100, 2)
    splits = chronological_split(series, (7, 2, 2))
    summary = series_summary(series, splits)
    assert summary["length"] == 100 and summary["channels"] == 2
    assert summary["split_sizes"] == {"train": 64, "val": 18, "test": 18}
    assert len(summary["channel_means"]) == 2
