"""Tests for the spectral kernels.

Expected values marked as frozen were computed with the naive reference
implementations at the top of this file (plain trigonometric sums, no shared
code with the module under test).
"""

import math
import tracemalloc

import numpy as np
import pytest

from fecam import spectral
from fecam.spectral import (
    ORTHO,
    UNNORMALIZED,
    FourierSeriesModel,
    Spectrum,
    dct_forward,
    dct_inverse,
    dct_matrix,
    dct_via_even_dft,
    dft_forward,
    dft_inverse,
    edge_error,
    fourier_partial_sum,
    gibbs_overshoot,
    gibbs_sweep,
    low_frequency_signal,
    pulse_wave_series,
    square_wave_series,
    symmetric_extension,
    truncated_reconstructions,
)


# --- reference implementations (oracles) -----------------------------------

def naive_dct(x, normalization):
    n = len(x)
    out = np.array([
        sum(x[i] * np.cos(np.pi * l / n * (i + 0.5)) for i in range(n))
        for l in range(n)
    ])
    if normalization == ORTHO:
        scale = np.full(n, np.sqrt(2.0 / n))
        scale[0] = np.sqrt(1.0 / n)
        out = out * scale
    return out


# The sums below stay accurate at long lengths: each angle's integer part is
# reduced modulo one period before it is scaled, so no angle exceeds 2*pi.

def naive_dft(values, sign=-1):
    """Unitary DFT (sign -1) or inverse DFT (sign +1) as an O(L^2) sum."""
    n = len(values)
    k = np.arange(n)
    phase = np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)
    return phase @ np.asarray(values, complex) / np.sqrt(n)


def naive_idct(coeffs):
    """x_i = sum_l w_l f_l cos(pi*l*(2i+1)/(2L)), the orthonormal inverse."""
    n = len(coeffs)
    k = np.arange(n)
    angle = np.pi * (np.outer(2 * k + 1, k) % (4 * n)) / (2 * n)
    weights = np.full(n, np.sqrt(2.0 / n))
    weights[0] = np.sqrt(1.0 / n)
    return np.cos(angle) @ (weights * coeffs)


def assert_pinned(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


PIN_LENGTHS = (1, 2, 3, 16, 97, 720, 1440)


# --- cosine basis entries ------------------------------------------------------

def test_basis_dc_row_is_one():
    # Entry (l, i) of the bare cosine matrix is cos(pi*l/length * (i + 1/2)).
    assert np.all(dct_matrix(8, UNNORMALIZED)[0] == 1.0)


def test_basis_frozen_values():
    basis = dct_matrix(4, UNNORMALIZED)
    assert basis.shape == (4, 4)
    assert basis[1, 0] == pytest.approx(0.9238795325112867, abs=1e-15)
    assert basis[2, 1] == pytest.approx(-0.7071067811865475, abs=1e-15)


def test_basis_index_out_of_range():
    for length in (0, -1):
        with pytest.raises(ValueError):
            dct_matrix(length, UNNORMALIZED)


# --- forward / inverse DCT ---------------------------------------------------

def test_constant_signal_is_pure_dc():
    spec = dct_forward([1.0, 1.0, 1.0, 1.0], UNNORMALIZED)
    assert spec.coefficients[0] == pytest.approx(4.0, abs=1e-12)
    assert np.max(np.abs(spec.coefficients[1:])) < 1e-12


def test_one_hot_spectrum_frozen():
    spec = dct_forward([1.0, 0.0, 0.0, 0.0], UNNORMALIZED)
    expected = [1.0, 0.9238795325112867, 0.7071067811865476, 0.38268343236508984]
    np.testing.assert_allclose(spec.coefficients, expected, atol=1e-15)


def test_forward_matches_naive_both_normalizations():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 33))
        x = rng.normal(size=n)
        for norm in (UNNORMALIZED, ORTHO):
            np.testing.assert_allclose(
                dct_forward(x, norm).coefficients, naive_dct(x, norm), atol=1e-10)


def test_forward_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        dct_forward([])
    with pytest.raises(ValueError):
        dct_forward([1.0, np.nan])
    with pytest.raises(ValueError):
        dct_forward([1.0], "banana")


# One scale inverts; the parameter keeps each case's id `[<length>-ortho]`.
@pytest.mark.parametrize("normalization", [ORTHO])
@pytest.mark.parametrize("length", PIN_LENGTHS)
def test_inverse_matches_plain_sum_and_keeps_coefficients(length, normalization):
    rng = np.random.default_rng(length)
    spectrum = Spectrum(rng.normal(size=length) * 10.0, normalization)
    before = spectrum.coefficients.copy()
    assert_pinned(dct_inverse(spectrum), naive_idct(before))
    np.testing.assert_array_equal(spectrum.coefficients, before)


def test_inverse_of_constant_spectrum():
    # The orthonormal DC coefficient of L ones is sqrt(L) * 1 = 2 at L = 4.
    x = dct_inverse(Spectrum([2.0, 0.0, 0.0, 0.0], ORTHO))
    np.testing.assert_allclose(x, np.ones(4), atol=1e-12)


def test_inverse_refuses_an_unnormalized_spectrum():
    # Only the orthonormal spectrum is ever inverted; the bare cosine sum is
    # a forward-only scale, and its tag is named in the refusal.
    with pytest.raises(ValueError, match="'unnormalized'"):
        dct_inverse(dct_forward([1.0, 2.0, 3.0], UNNORMALIZED))


def test_inverse_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="nonempty 1-D"):
        dct_inverse(Spectrum([], ORTHO))
    with pytest.raises(ValueError, match="non-finite"):
        dct_inverse(Spectrum([1.0, np.inf], ORTHO))


def test_inverse_one_hot_ortho_frozen():
    x = dct_inverse(Spectrum([0.0, 1.0, 0.0, 0.0], ORTHO))
    expected = [0.6532814824381883, 0.27059805007309856,
                -0.2705980500730985, -0.6532814824381883]
    np.testing.assert_allclose(x, expected, atol=1e-15)


def test_round_trip_many_signals():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        x = rng.normal(size=n) * 10
        back = dct_inverse(dct_forward(x, ORTHO))
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-9


def test_linearity():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=24), rng.normal(size=24)
    a, b = 2.5, -1.25
    combined = dct_forward(a * x + b * y).coefficients
    parts = a * dct_forward(x).coefficients + b * dct_forward(y).coefficients
    np.testing.assert_allclose(combined, parts, atol=1e-9)


def test_ortho_matrix_is_orthogonal_up_to_512():
    for n in (4, 16, 128, 512):
        g = dct_matrix(n, ORTHO)
        assert np.max(np.abs(g @ g.T - np.eye(n))) < 1e-10


def test_dc_coefficient_is_length_times_mean():
    # The bare-cosine index-0 coefficient equals L * mean(x) to rounding.
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 129))
        x = rng.normal(size=n) * rng.uniform(0.1, 100)
        f0 = dct_forward(x, UNNORMALIZED).coefficients[0]
        ref = n * np.mean(x)
        assert abs(f0 - ref) <= 1e-12 * max(abs(ref), 1e-300)


# --- DFT ---------------------------------------------------------------------

def test_dft_constant_signal():
    bins = dft_forward([1.0, 1.0, 1.0, 1.0])
    assert bins[0] == pytest.approx(2.0)
    assert np.max(np.abs(bins[1:])) < 1e-12


def test_dft_alternating_signal_hits_nyquist_only():
    bins = dft_forward([1.0, -1.0, 1.0, -1.0])
    assert abs(bins[2]) == pytest.approx(2.0)
    assert np.max(np.abs(bins[[0, 1, 3]])) < 1e-12


def test_dft_round_trip_and_naive_agreement():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(size=16)
        bins = dft_forward(x)
        np.testing.assert_allclose(bins, naive_dft(x), atol=1e-10)
        np.testing.assert_allclose(dft_inverse(bins), x, atol=1e-9)


@pytest.mark.parametrize("length", PIN_LENGTHS)
def test_dft_pair_matches_plain_sums(length):
    rng = np.random.default_rng(length)
    x = rng.normal(size=length)
    assert_pinned(dft_forward(x), naive_dft(x))
    bins = rng.normal(size=length) + 1j * rng.normal(size=length)
    assert_pinned(dft_inverse(bins), naive_dft(bins, +1).real)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        dft_forward([])
    with pytest.raises(ValueError):
        dft_inverse([])


# --- symmetric extension and the even-DFT identity ---------------------------

def test_extension_definition():
    np.testing.assert_array_equal(symmetric_extension([1.0, 2.0, 3.0]),
                                  [1.0, 2.0, 3.0, 3.0, 2.0, 1.0])


def test_extension_is_palindromic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=9)
    ext = symmetric_extension(x)
    np.testing.assert_array_equal(ext, ext[::-1])


def test_dct_equals_phase_corrected_even_dft():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        x = rng.normal(size=n) * 5
        direct = dct_forward(x, UNNORMALIZED).coefficients
        via_dft = dct_via_even_dft(x)
        worst = max(worst, float(np.max(np.abs(direct - via_dft))))
    assert worst < 1e-9


# --- Fourier partial sums -----------------------------------------------------

def test_square_wave_first_harmonic_peak():
    model = square_wave_series(amplitude=1.0)
    assert fourier_partial_sum(model, 1, model.period / 4) == pytest.approx(
        4 / np.pi, abs=1e-12)


def test_order_zero_is_half_a0():
    model = pulse_wave_series()
    for x in (0.0, 0.31, 0.77):
        assert fourier_partial_sum(model, 0, x) == pytest.approx(model.a0 / 2)


def test_negative_order_rejected():
    model = square_wave_series()
    with pytest.raises(ValueError):
        fourier_partial_sum(model, -1, 0.1)


def test_series_period_must_be_positive():
    for period in (0.0, -1.0):
        with pytest.raises(ValueError, match="period must be positive"):
            FourierSeriesModel(period, 0.0, square_wave_series().coefficients, -1.0, 1.0)


def test_partial_sum_is_chunked_without_changing_a_bit():
    # 600 points are two full 256-point chunks plus a ragged tail; the chunks
    # must add the same terms in the same order as one (points x order) product.
    for model in (square_wave_series(), pulse_wave_series(2.5)):
        x = np.linspace(-0.3, 1.7, 600) * model.period
        for order in (0, 1, 37):
            n = np.arange(1, order + 1)
            cos_c, sin_c = model.coefficients(n)
            outer = 2 * np.pi * np.outer(x, n) / model.period
            reference = 0.5 * model.a0 + np.cos(outer) @ cos_c + np.sin(outer) @ sin_c
            assert fourier_partial_sum(model, order, x).tobytes() == reference.tobytes()
            value = fourier_partial_sum(model, order, x[300])
            assert type(value) is float
            assert value == fourier_partial_sum(model, order, x[300:301])[0]


def test_partial_sum_blocks_stay_within_the_byte_budget(monkeypatch):
    # 256-point blocks at order 20,000 hold about 40 MB per temporary; a
    # 1 MiB budget cuts them to 6 points.
    monkeypatch.setattr(spectral, "PARTIAL_SUM_BLOCK_BYTES", 2**20)
    model = square_wave_series()
    x = np.linspace(0.0, model.period, 300)
    tracemalloc.start()
    try:
        fourier_partial_sum(model, 20_000, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_partial_sum_converges_to_jump_midpoint():
    # At the jump the partial sum tends to the average of the one-sided
    # limits; the asymmetric pulse makes this nontrivial at finite order.
    model = pulse_wave_series()
    midpoint = 0.5 * (model.left_limit + model.right_limit)
    assert fourier_partial_sum(model, 10_000, 0.0) == pytest.approx(midpoint, abs=1e-3)


# --- Gibbs overshoot ----------------------------------------------------------

def test_overshoot_converges_to_constant():
    model = square_wave_series(amplitude=1.0)  # jump a = 2
    target = model.jump * spectral.GIBBS_CONSTANT
    overshoot = gibbs_overshoot(model, 10_000)
    assert overshoot == pytest.approx(0.17897974780550063, abs=1e-12)  # frozen
    assert abs(overshoot - target) / target < 0.005


def test_overshoot_errors_shrink_monotonically():
    model = square_wave_series(amplitude=1.0)
    target = model.jump * spectral.GIBBS_CONSTANT
    errs = [abs(gibbs_overshoot(model, n) - target) for n in (100, 1000, 10_000)]
    assert errs[0] > errs[1] > errs[2]


def test_negative_jump_flips_overshoot_sign():
    model = square_wave_series(amplitude=-1.0)  # jump a = -2
    overshoot = gibbs_overshoot(model, 10_000)
    assert overshoot == pytest.approx(-0.17897974780550063, abs=1e-12)


def test_overshoot_is_linear_in_jump():
    big = gibbs_overshoot(square_wave_series(2.0), 4000)
    small = gibbs_overshoot(square_wave_series(1.0), 4000)
    assert big == pytest.approx(2 * small, rel=1e-9)


def test_zero_jump_rejected():
    model = square_wave_series(amplitude=0.0)
    with pytest.raises(ValueError):
        gibbs_overshoot(model, 10)


def test_overshoot_needs_order_at_least_one():
    # Order 0 would sample the partial sum at period / 0.
    with pytest.raises(ValueError, match="order must be >= 1"):
        gibbs_overshoot(square_wave_series(), 0)


def test_gibbs_sweep_rows():
    model = square_wave_series(amplitude=1.0)
    rows = gibbs_sweep(model, [10, 100, 1000])
    assert [r[0] for r in rows] == [10, 100, 1000]
    assert all(r[2] == pytest.approx(2 * spectral.GIBBS_CONSTANT) for r in rows)


# --- truncated reconstruction -------------------------------------------------

def truncation_errors(x, ns):
    """Rows (n, dct_err, dft_err) of euclidean reconstruction errors, as compaction.csv."""
    return [(n, float(np.linalg.norm(dct - x)), float(np.linalg.norm(dft - x)))
            for n, dct, dft in truncated_reconstructions(x, ns)]


def test_full_reconstruction_is_exact_both_kinds():
    rng = np.random.default_rng(23)
    x = rng.normal(size=16)
    [(_, dct_err, dft_err)] = truncation_errors(x, [16])
    assert dct_err < 1e-9 and dft_err < 1e-9


def test_signal_inside_kept_subspace_has_zero_error():
    i = np.arange(12)
    x = np.cos(np.pi * 2 / 12 * (i + 0.5))  # pure index-2 basis vector
    [(_, dct_err, _)] = truncation_errors(x, [3])
    assert dct_err < 1e-12


def test_low_frequency_fixture_favors_dct_at_n5():
    [(_, dct_err, dft_err)] = truncation_errors(low_frequency_signal(), [5])
    assert dct_err < dft_err
    assert dft_err == pytest.approx(1.100724643550, abs=1e-9)  # frozen


def test_component_count_out_of_range():
    with pytest.raises(ValueError, match="component count 0 outside"):
        truncated_reconstructions(np.ones(8), [0])
    with pytest.raises(ValueError, match="component count 9 outside"):
        truncated_reconstructions(np.ones(8), [4, 9])


@pytest.mark.parametrize("length", [7, 8])
def test_dft_truncation_keeps_dc_and_lowest_bin_pairs(length, monkeypatch):
    # Every n at an odd and an even length (whose Nyquist bin has no pair),
    # against the kept-bin mask built one bin pair at a time.
    passed = []
    inverse = spectral.dft_inverse

    def spy(bins):
        passed.append(np.array(bins))
        return inverse(bins)

    monkeypatch.setattr(spectral, "dft_inverse", spy)
    x = np.random.default_rng(31).normal(size=length)
    bins = dft_forward(x)
    rows = truncated_reconstructions(x, range(1, length + 1))
    assert len(passed) == len(rows) == length
    for sent, (n, _, recon) in zip(passed, rows):
        keep = np.zeros(length, dtype=bool)
        keep[0] = True
        for k in range(1, math.ceil((n - 1) / 2) + 1):
            keep[k] = True
            keep[length - k] = True
        expected = np.where(keep, bins, 0.0)
        np.testing.assert_array_equal(sent, expected)
        np.testing.assert_array_equal(recon, inverse(expected))


def test_dft_truncation_output_is_real_for_random_input():
    rng = np.random.default_rng(29)
    x = rng.normal(size=16)
    [(_, _, recon)] = truncated_reconstructions(x, [6])
    assert recon.dtype == np.float64


def test_rows_follow_the_given_order():
    rows = truncated_reconstructions(low_frequency_signal(), [15, 5, 5])
    assert [n for n, _, _ in rows] == [15, 5, 5]
    np.testing.assert_array_equal(rows[1][1], rows[2][1])
    np.testing.assert_array_equal(rows[1][2], rows[2][2])


# --- boundary overshoot comparison ---------------------------------------------

def edge_errors(x, n):
    [(_, dct, dft)] = truncated_reconstructions(x, [n])
    return edge_error(x, dct), edge_error(x, dft)


def test_ramp_boundary_error_dct_below_dft():
    ramp = np.arange(16, dtype=float)
    dct_err, dft_err = edge_errors(ramp, 5)
    assert dct_err < dft_err
    assert dct_err == pytest.approx(0.3778647, abs=1e-6)  # frozen
    assert dft_err == pytest.approx(5.5, abs=1e-9)        # frozen


def test_constant_signal_has_no_boundary_error():
    dct_err, dft_err = edge_errors(np.full(16, 3.0), 4)
    assert dct_err < 1e-12 and dft_err < 1e-12


def test_full_truncation_has_no_boundary_error():
    ramp = np.arange(16, dtype=float)
    dct_err, dft_err = edge_errors(ramp, 16)
    assert dct_err < 1e-9 and dft_err < 1e-9


# --- energy compaction ----------------------------------------------------------

def test_compaction_report_on_fixture():
    rows = truncation_errors(low_frequency_signal(), [5, 10, 15])
    assert [r[0] for r in rows] == [5, 10, 15]
    for _, dct_err, dft_err in rows:
        assert dct_err < dft_err
    # The fixture lies inside the first five basis vectors, so every DCT
    # truncation error is rounding noise while the DFT errors stay finite.
    assert all(r[1] < 1e-12 for r in rows)
    dft_errs = [r[2] for r in rows]
    assert dft_errs[0] > dft_errs[1] > dft_errs[2]


def test_compaction_full_count_both_zero():
    rows = truncation_errors(low_frequency_signal(), [16])
    assert rows[0][1] < 1e-9 and rows[0][2] < 1e-9


def test_compaction_single_component_on_constant():
    rows = truncation_errors(np.full(16, 2.0), [1])
    assert rows[0][1] < 1e-12 and rows[0][2] < 1e-12


def test_compaction_rejects_empty_ns():
    with pytest.raises(ValueError):
        truncated_reconstructions(low_frequency_signal(), [])
