"""Tests for dataset loading, splitting, scaling, windowing, and fixtures."""

import numpy as np
import pytest

from fecam.data import (
    RawSeries,
    Standardizer,
    chronological_split,
    fit_standardizer,
    load_csv,
    make_windows,
    series_summary,
    synth_series,
)
from fecam.spectral import ORTHO, dct_forward


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- RawSeries ---------------------------------------------------------------

def test_series_validates_shapes_and_order():
    with pytest.raises(ValueError):
        RawSeries([0.0, 1.0], np.zeros((3, 2)), ["a", "b"])
    with pytest.raises(ValueError):
        RawSeries([0.0, 1.0, 2.0], np.zeros((3, 2)), ["a"])
    with pytest.raises(ValueError):
        RawSeries([0.0, 2.0, 1.0], np.zeros((3, 2)), ["a", "b"])
    with pytest.raises(ValueError):
        RawSeries([0.0, 1.0, 1.0], np.zeros((3, 2)), ["a", "b"])


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


# --- chronological_split ----------------------------------------------------------

def make_series(t, c=2):
    obs = np.arange(t * c, dtype=float).reshape(t, c)
    return RawSeries(list(range(t)), obs, [f"ch{i}" for i in range(c)])


def test_split_literal_seven_two_two():
    train, val, test = chronological_split(make_series(100), (7, 2, 2))
    assert (train.length, val.length, test.length) == (64, 18, 18)


def test_split_three_one_one_exact():
    train, val, test = chronological_split(make_series(10), (3, 1, 1))
    assert (train.length, val.length, test.length) == (6, 2, 2)


def test_split_is_a_partition():
    series = make_series(101, 3)
    pieces = chronological_split(series, (0.7, 0.1, 0.2))
    stacked = np.vstack([p.observations for p in pieces])
    np.testing.assert_array_equal(stacked, series.observations)
    rejoined = sum((p.timestamps for p in pieces), [])
    assert rejoined == series.timestamps


def test_split_minimum_length_enforced():
    with pytest.raises(ValueError, match="val slice has 18 rows"):
        chronological_split(make_series(100), (7, 2, 2), min_slice_len=19)
    chronological_split(make_series(100), (7, 2, 2), min_slice_len=18)


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        chronological_split(make_series(10), (1, 1))
    with pytest.raises(ValueError):
        chronological_split(make_series(10), (1, 0, 1))


# --- standardizer -------------------------------------------------------------------

def test_fit_centers_and_scales_train():
    rng = np.random.default_rng(3)
    obs = rng.normal(5.0, 3.0, size=(200, 4))
    scaled = fit_standardizer(obs).transform(obs)
    assert np.max(np.abs(scaled.mean(axis=0))) < 1e-9
    assert np.max(np.abs(scaled.std(axis=0) - 1.0)) < 1e-9


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(50, 3)) * 7 + 2
    scaler = fit_standardizer(obs)
    np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(obs)), obs,
                               atol=1e-9)


def test_val_test_use_train_statistics():
    series = make_series(100, 2)
    train, val, test = chronological_split(series, (7, 2, 2))
    scaler = fit_standardizer(train)
    scaled_test = scaler.transform(test.observations)
    # The ramp keeps growing, so test rows standardized by train stats sit
    # far from zero mean.
    assert abs(scaled_test.mean()) > 1.0


def test_changing_test_slice_never_changes_scaler():
    series = make_series(100, 2)
    train, _, test = chronological_split(series, (7, 2, 2))
    before = fit_standardizer(train)
    test.observations[:] = 1e6
    after = fit_standardizer(train)
    np.testing.assert_array_equal(before.mean, after.mean)
    np.testing.assert_array_equal(before.std, after.std)


def test_degenerate_channel_named():
    obs = np.ones((10, 3))
    obs[:, 0] = np.arange(10)
    obs[:, 2] = np.arange(10) * 2
    with pytest.raises(ValueError, match="channel 1"):
        fit_standardizer(obs)


def test_transform_channel_count_checked():
    scaler = Standardizer(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        scaler.transform(np.ones((5, 4)))


def test_apply_returns_series_with_same_clock():
    series = make_series(20, 2)
    scaled = fit_standardizer(series).apply(series)
    assert scaled.timestamps == series.timestamps
    assert scaled.channel_names == series.channel_names


# --- windows ---------------------------------------------------------------------------

def test_window_count_and_contents():
    series = make_series(10, 2)
    ds = make_windows(series, lookback=3, horizon=2)
    assert ds.n_windows == 6
    np.testing.assert_array_equal(ds.inputs[0], series.observations[0:3].T)
    np.testing.assert_array_equal(ds.targets[0], series.observations[3:5].T)


def test_targets_start_where_inputs_end():
    series = make_series(30, 1)
    ds = make_windows(series, lookback=4, horizon=3)
    for n in range(ds.n_windows):
        assert ds.inputs[n, 0, -1] + 1 == ds.targets[n, 0, 0]  # values are 0,1,2,...


def test_window_count_formula_across_sizes():
    for t, lookback, horizon in [(10, 3, 2), (50, 7, 7), (96 + 96, 96, 96)]:
        ds = make_windows(make_series(t, 1), lookback, horizon)
        assert ds.n_windows == t - lookback - horizon + 1


def test_stride_reduces_window_count():
    ds = make_windows(make_series(20, 1), 4, 2, stride=3)
    assert ds.n_windows == len(range(0, 20 - 6 + 1, 3))


def test_too_short_series_rejected():
    with pytest.raises(ValueError):
        make_windows(make_series(5, 1), 4, 2)
    with pytest.raises(ValueError):
        make_windows(make_series(10, 1), 0, 2)


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
