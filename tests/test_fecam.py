"""Tests for the frequency attention layer and the squeeze-excite baseline."""

import numpy as np
import pytest

from fecam.attention import (
    FecamLayer,
    SeBaseline,
    export_attention,
    fecam_backward,
    fecam_forward,
    frequency_map,
    gap,
    se_attention,
    se_attention_backward,
)
from fecam.nncore import dense_backward, dense_forward, grad_check, mse_loss, relu_backward, relu_forward
from fecam.spectral import ORTHO, UNNORMALIZED, dct_forward


def zeroed(layer):
    """Freeze every excitation parameter at zero; attention becomes 0.5."""
    for value, _ in layer.parameters():
        value[:] = 0.0
    return layer


# --- gap ----------------------------------------------------------------------

def test_gap_of_constant_channels():
    x = np.zeros((2, 3, 5))
    x[:, 0], x[:, 1], x[:, 2] = 1.0, -2.0, 0.25
    np.testing.assert_array_equal(gap(x), np.tile([1.0, -2.0, 0.25], (2, 1)))


def test_gap_arithmetic_mean():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
    assert gap(x)[0, 0] == 2.5


def test_gap_requires_three_axes():
    with pytest.raises(ValueError):
        gap(np.ones((4, 5)))


def test_lowest_coefficient_recovers_gap():
    # The bare-cosine index-0 coefficient is length * mean; the orthonormal
    # one is sqrt(length) * mean. Either way the squeeze vector is embedded
    # in the frequency map up to a fixed scale.
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 4, 96))
    means = gap(x)
    layer = FecamLayer(96, rng=rng)
    freq = frequency_map(x, layer)
    for b in range(3):
        for c in range(4):
            raw0 = dct_forward(x[b, c], UNNORMALIZED).coefficients[0]
            assert abs(raw0 - 96 * means[b, c]) <= 1e-12 * max(abs(raw0), 1e-300)
            assert freq[b, c, 0] == pytest.approx(np.sqrt(96) * means[b, c], rel=1e-12)


# --- squeeze-excite baseline -----------------------------------------------------

def test_se_zero_weights_halves_input():
    se = zeroed(SeBaseline(4, reduction=2))
    x = np.random.default_rng(1).normal(size=(2, 4, 6))
    att, out = se_attention(x, se)
    np.testing.assert_array_equal(att, np.full((2, 4), 0.5))
    np.testing.assert_array_equal(out, x / 2)


def test_se_attention_is_in_unit_interval():
    se = SeBaseline(4, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(3, 4, 10)) * 5
    att, _ = se_attention(x, se)
    assert att.shape == (3, 4)
    assert np.all((att > 0.0) & (att < 1.0))


def test_se_channel_count_checked():
    se = SeBaseline(4)
    with pytest.raises(ValueError):
        se_attention(np.ones((1, 6, 5)), se)
    with pytest.raises(ValueError):
        SeBaseline(5, reduction=2)


def test_se_block_gradient_check():
    rng = np.random.default_rng(7)
    se = SeBaseline(4, reduction=2, rng=rng)
    x = rng.normal(size=(2, 4, 6))
    target = rng.normal(size=(2, 4, 6))

    def f():
        se.zero_grad()
        cache = {}
        _, out = se_attention(x, se, cache)
        loss, dl = mse_loss(out, target)
        dx = se_attention_backward(dl, se, cache)
        grads = [g for _, g in se.parameters()] + [dx]
        return loss, grads

    params = [p for p, _ in se.parameters()] + [x]
    assert grad_check(f, params) < 1e-4


def test_se_backward_requires_cache():
    se = SeBaseline(2)
    with pytest.raises(ValueError):
        se_attention_backward(np.ones((1, 2, 4)), se, {})


# --- frequency map ----------------------------------------------------------------

def test_frequency_map_matches_single_channel_transform_bitwise():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 5, 16))
    layer = FecamLayer(16)
    freq = frequency_map(x, layer)
    for b in range(3):
        for c in range(5):
            expected = dct_forward(x[b, c], ORTHO).coefficients
            assert np.array_equal(freq[b, c], expected)


def test_frequency_map_constant_channel_is_pure_dc():
    x = np.full((1, 2, 8), 3.0)
    freq = frequency_map(x, FecamLayer(8))
    assert np.max(np.abs(freq[:, :, 1:])) < 1e-12
    np.testing.assert_allclose(freq[:, :, 0], np.sqrt(8) * 3.0)


def test_frequency_map_is_linear():
    rng = np.random.default_rng(13)
    layer = FecamLayer(12, reduction=3)
    x, y = rng.normal(size=(2, 3, 12)), rng.normal(size=(2, 3, 12))
    lhs = frequency_map(2.0 * x - 0.5 * y, layer)
    rhs = 2.0 * frequency_map(x, layer) - 0.5 * frequency_map(y, layer)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frequency_map_channel_equivariance():
    rng = np.random.default_rng(17)
    layer = FecamLayer(8)
    x = rng.normal(size=(2, 5, 8))
    perm = np.array([3, 0, 4, 1, 2])
    np.testing.assert_array_equal(frequency_map(x[:, perm], layer),
                                  frequency_map(x, layer)[:, perm])


def test_frequency_map_length_mismatch():
    with pytest.raises(ValueError):
        frequency_map(np.ones((1, 2, 10)), FecamLayer(8))


# --- fecam forward ------------------------------------------------------------------

def test_zero_excitation_fixed_point():
    layer = zeroed(FecamLayer(8, reduction=2))
    x = np.random.default_rng(19).normal(size=(2, 3, 8))
    out, att = fecam_forward(x, layer)
    np.testing.assert_array_equal(att, np.full((2, 3, 8), 0.5))
    np.testing.assert_array_equal(out, x / 2)


def test_attention_shape_and_open_interval():
    rng = np.random.default_rng(23)
    layer = FecamLayer(16, reduction=4, rng=rng)
    x = rng.normal(size=(4, 6, 16)) * 3
    out, att = fecam_forward(x, layer)
    assert att.shape == (4, 6, 16) and out.shape == x.shape
    assert np.all((att > 0.0) & (att < 1.0))


def test_output_never_amplifies():
    rng = np.random.default_rng(29)
    layer = FecamLayer(12, rng=rng)
    x = rng.normal(size=(3, 4, 12)) * 10
    out, _ = fecam_forward(x, layer)
    assert np.all(np.abs(out) <= np.abs(x))


def test_layer_construction_validation():
    with pytest.raises(ValueError):
        FecamLayer(9, reduction=2)
    with pytest.raises(ValueError):
        FecamLayer(0)
    with pytest.raises(ValueError):
        FecamLayer(8, reduction=0)


def test_layer_is_seed_deterministic():
    a = FecamLayer(8, rng=np.random.default_rng(5))
    b = FecamLayer(8, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.excite1.weight, b.excite1.weight)
    np.testing.assert_array_equal(a.excite2.bias, b.excite2.bias)


# --- fecam backward -----------------------------------------------------------------

def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(31)
    layer = FecamLayer(8, rng=rng)
    x = rng.normal(size=(2, 2, 8))
    cache = {}
    fecam_forward(x, layer, cache)
    dx = fecam_backward(np.zeros_like(x), layer, cache)
    assert not dx.any()
    assert not any(g.any() for _, g in layer.parameters())


def test_backward_requires_cache():
    layer = FecamLayer(8)
    with pytest.raises(ValueError):
        fecam_backward(np.ones((1, 1, 8)), layer, {})


def test_batch_grads_are_summed_not_averaged():
    rng = np.random.default_rng(37)
    layer = FecamLayer(8, rng=rng)
    x = rng.normal(size=(1, 2, 8))
    up = rng.normal(size=(1, 2, 8))

    cache = {}
    fecam_forward(x, layer, cache)
    fecam_backward(up, layer, cache)
    single = layer.excite1.weight_grad.copy()

    layer.zero_grad()
    doubled = np.concatenate([x, x], axis=0)
    cache = {}
    fecam_forward(doubled, layer, cache)
    fecam_backward(np.concatenate([up, up], axis=0), layer, cache)
    np.testing.assert_allclose(layer.excite1.weight_grad, 2 * single, rtol=1e-12)


def test_full_layer_gradient_check():
    rng = np.random.default_rng(41)
    layer = FecamLayer(8, reduction=2, rng=rng)
    x = rng.normal(size=(2, 3, 8))
    target = rng.normal(size=(2, 3, 8))

    def f():
        layer.zero_grad()
        cache = {}
        out, _ = fecam_forward(x, layer, cache)
        loss, dl = mse_loss(out, target)
        dx = fecam_backward(dl, layer, cache)
        return loss, [g for _, g in layer.parameters()] + [dx]

    params = [p for p, _ in layer.parameters()] + [x]
    assert grad_check(f, params) < 1e-4


def test_gradient_check_across_seeds():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 7)) * 2
        layer = FecamLayer(length, reduction=2, rng=rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 5)), length))
        target = rng.normal(size=x.shape)

        def f():
            layer.zero_grad()
            cache = {}
            out, _ = fecam_forward(x, layer, cache)
            loss, dl = mse_loss(out, target)
            dx = fecam_backward(dl, layer, cache)
            return loss, [g for _, g in layer.parameters()] + [dx]

        assert grad_check(f, [p for p, _ in layer.parameters()] + [x]) < 1e-4


# --- fused path pinned to the per-row reference ----------------------------------------

def reference_forward_backward(x, upstream, layer):
    """The unfused layer: per-row spectrum, two dense layers, two-branch sigmoid.

    Returns (out, att, dx, copies of the four parameter grads); the layer's
    grad buffers are zeroed first and left holding those grads.
    """
    freq = frequency_map(x, layer)
    z1 = dense_forward(layer.excite1, freq)
    h1 = relu_forward(z1)
    z2 = dense_forward(layer.excite2, h1)
    att = np.empty_like(z2)
    pos = z2 >= 0
    att[pos] = 1.0 / (1.0 + np.exp(-z2[pos]))
    expz = np.exp(z2[~pos])
    att[~pos] = expz / (1.0 + expz)
    out = x * att

    layer.zero_grad()
    d_x = upstream * att
    d_z2 = upstream * x * att * (1.0 - att)
    d_h1 = dense_backward(layer.excite2, d_z2, h1)
    d_freq = dense_backward(layer.excite1, relu_backward(d_h1, z1), freq)
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            d_x[b, c] += layer.dct.T @ d_freq[b, c]
    return out, att, d_x, [g.copy() for _, g in layer.parameters()]


@pytest.mark.parametrize("shape", [(32, 7, 96), (4, 21, 336)])
def test_fused_path_matches_per_row_reference(shape):
    rng = np.random.default_rng(59)
    layer = FecamLayer(shape[2], reduction=2, rng=rng)
    for value, _ in layer.parameters():
        value += rng.normal(scale=0.3, size=value.shape)
    x = rng.normal(size=shape) * 2.0
    upstream = rng.normal(size=shape)
    ref_out, ref_att, ref_dx, ref_grads = reference_forward_backward(x, upstream, layer)

    layer.zero_grad()
    cache = {}
    out, att = fecam_forward(x, layer, cache)
    dx = fecam_backward(upstream, layer, cache)
    grads = [g for _, g in layer.parameters()]
    for name, got, ref in zip(["out", "att", "dx", "w1", "b1", "w2", "b2"],
                              [out, att, dx, *grads], [ref_out, ref_att, ref_dx, *ref_grads]):
        bound = 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= bound, name


def test_forward_sees_in_place_weight_edits():
    rng = np.random.default_rng(61)
    layer = FecamLayer(16, rng=rng)
    x = rng.normal(size=(2, 3, 16))
    before = fecam_forward(x, layer)[1]
    layer.excite1.weight[3, :] += 0.5
    after = fecam_forward(x, layer)[1]
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after, reference_forward_backward(x, np.zeros_like(x), layer)[1],
                               rtol=0, atol=1e-12)


def test_forward_rejects_bad_length_and_non_finite_input():
    layer = FecamLayer(8)
    with pytest.raises(ValueError, match="seq_len"):
        fecam_forward(np.ones((1, 2, 10)), layer)
    x = np.ones((1, 2, 8))
    x[0, 1, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fecam_forward(x, layer)


# --- state round trip -----------------------------------------------------------------

def test_state_arrays_round_trip():
    rng = np.random.default_rng(43)
    src = FecamLayer(8, rng=rng)
    dst = FecamLayer(8, rng=np.random.default_rng(99))
    dst.load_state({k: v.copy() for k, v in src.state_arrays().items()})
    x = rng.normal(size=(1, 2, 8))
    np.testing.assert_array_equal(fecam_forward(x, src)[0], fecam_forward(x, dst)[0])


def test_load_state_shape_mismatch():
    layer = FecamLayer(8)
    bad = {k: np.zeros((2, 2)) for k in layer.state_arrays()}
    with pytest.raises(ValueError):
        layer.load_state(bad)


# --- attention export -------------------------------------------------------------------

def test_export_uniform_attention(tmp_path):
    att = np.full((3, 2, 4), 0.5)
    path = tmp_path / "att.csv"
    heatmap = export_attention(att, path)
    np.testing.assert_array_equal(heatmap, np.full((4, 2), 0.5))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "channel_0,channel_1"
    assert all(line == "0.5,0.5" for line in lines[1:])


def test_export_shape_contract(tmp_path):
    att = np.random.default_rng(47).uniform(0.1, 0.9, size=(5, 7, 96))
    path = tmp_path / "att.csv"
    export_attention(att, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 97  # header + one row per frequency
    assert all(len(line.split(",")) == 7 for line in lines)


def test_export_round_trip_precision(tmp_path):
    rng = np.random.default_rng(53)
    att = rng.uniform(1e-4, 1.0 - 1e-4, size=(4, 3, 8))
    path = tmp_path / "att.csv"
    heatmap = export_attention(att, path)
    reread = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(reread, heatmap, atol=1e-6)
    np.testing.assert_allclose(heatmap, att.mean(axis=0).T, atol=1e-15)
