"""Tests for the frequency attention layer."""

import base64
import json
import tracemalloc

import numpy as np
import pytest

from fecam.attention import (
    INFERENCE_BATCH,
    Excitation,
    _check_input,
    _folded_weight,
    export_attention,
    fecam_backward,
    fecam_forward,
    mean_attention,
)
from fecam.data import Standardizer, make_windows
from fecam.forecaster import ForecastModel, load_model, save_model
from fecam.nncore import dense_backward, dense_forward, mse_loss, relu_backward, relu_forward
from fecam.spectral import ORTHO, UNNORMALIZED, dct_forward, dct_matrix

from grad_check import grad_check
from param_pairs import param_pairs


def zeroed(layer):
    """Freeze every excitation parameter at zero; attention becomes 0.5."""
    for value, _ in param_pairs(layer.excite1, layer.excite2):
        value[:] = 0.0
    return layer


# --- squeeze ------------------------------------------------------------------------

def test_lowest_coefficient_recovers_gap():
    # The bare-cosine index-0 coefficient is length * mean; the orthonormal
    # one is sqrt(length) * mean. Either way the squeeze vector is embedded
    # in the frequency map up to a fixed scale.
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 4, 96))
    means = x.mean(axis=2)
    freq = x @ dct_matrix(96, ORTHO).T
    for b in range(3):
        for c in range(4):
            raw0 = dct_forward(x[b, c], UNNORMALIZED).coefficients[0]
            assert abs(raw0 - 96 * means[b, c]) <= 1e-12 * max(abs(raw0), 1e-300)
            assert freq[b, c, 0] == pytest.approx(np.sqrt(96) * means[b, c], rel=1e-12)


# --- fecam forward ------------------------------------------------------------------

def test_zero_excitation_fixed_point():
    layer = zeroed(Excitation(8, reduction=2, rng=np.random.default_rng(0)))
    x = np.random.default_rng(19).normal(size=(2, 3, 8))
    out, att = fecam_forward(x, layer)
    np.testing.assert_array_equal(att, np.full((2, 3, 8), 0.5))
    np.testing.assert_array_equal(out, x / 2)


def test_attention_shape_and_open_interval():
    rng = np.random.default_rng(23)
    layer = Excitation(16, reduction=4, rng=rng)
    x = rng.normal(size=(4, 6, 16)) * 3
    out, att = fecam_forward(x, layer)
    assert att.shape == (4, 6, 16) and out.shape == x.shape
    assert np.all((att > 0.0) & (att < 1.0))


def test_output_never_amplifies():
    rng = np.random.default_rng(29)
    layer = Excitation(12, rng=rng)
    x = rng.normal(size=(3, 4, 12)) * 10
    out, _ = fecam_forward(x, layer)
    assert np.all(np.abs(out) <= np.abs(x))


def test_layer_construction_validation():
    with pytest.raises(ValueError):
        Excitation(9, reduction=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Excitation(0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Excitation(8, reduction=0, rng=np.random.default_rng(0))


def test_layer_is_seed_deterministic():
    a = Excitation(8, rng=np.random.default_rng(5))
    b = Excitation(8, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.excite1.weight, b.excite1.weight)
    np.testing.assert_array_equal(a.excite2.bias, b.excite2.bias)


# --- fecam backward -----------------------------------------------------------------

def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(31)
    layer = Excitation(8, rng=rng)
    x = rng.normal(size=(2, 2, 8))
    cache = {}
    fecam_forward(x, layer, cache)
    dx = fecam_backward(np.zeros_like(x), layer, cache)
    assert not dx.any()
    assert not any(g.any() for _, g in param_pairs(layer.excite1, layer.excite2))


def test_backward_requires_cache():
    layer = Excitation(8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        fecam_backward(np.ones((1, 1, 8)), layer, {})


def test_backward_rejects_upstream_of_another_shape():
    layer = Excitation(8, rng=np.random.default_rng(0))
    cache = {}
    fecam_forward(np.ones((2, 3, 8)), layer, cache)
    with pytest.raises(ValueError, match=r"upstream shape \(2, 2, 8\) != input shape "
                                         r"\(2, 3, 8\)"):
        fecam_backward(np.ones((2, 2, 8)), layer, cache)


def test_batch_grads_are_summed_not_averaged():
    rng = np.random.default_rng(37)
    layer = Excitation(8, rng=rng)
    x = rng.normal(size=(1, 2, 8))
    up = rng.normal(size=(1, 2, 8))

    cache = {}
    fecam_forward(x, layer, cache)
    fecam_backward(up, layer, cache)
    single = layer.excite1.weight_grad.copy()

    for _, g in param_pairs(layer.excite1, layer.excite2):
        g.fill(0.0)
    doubled = np.concatenate([x, x], axis=0)
    cache = {}
    fecam_forward(doubled, layer, cache)
    fecam_backward(np.concatenate([up, up], axis=0), layer, cache)
    np.testing.assert_allclose(layer.excite1.weight_grad, 2 * single, rtol=1e-12)


def test_full_layer_gradient_check():
    rng = np.random.default_rng(41)
    layer = Excitation(8, reduction=2, rng=rng)
    x = rng.normal(size=(2, 3, 8))
    target = rng.normal(size=(2, 3, 8))
    pairs = param_pairs(layer.excite1, layer.excite2)

    def f():
        for _, g in pairs:
            g.fill(0.0)
        cache = {}
        out, _ = fecam_forward(x, layer, cache)
        loss, dl = mse_loss(out, target)
        dx = fecam_backward(dl, layer, cache)
        return loss, [g for _, g in pairs] + [dx]

    params = [p for p, _ in pairs] + [x]
    assert grad_check(f, params) < 1e-4


def test_gradient_check_across_seeds():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 7)) * 2
        layer = Excitation(length, reduction=2, rng=rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 5)), length))
        target = rng.normal(size=x.shape)
        pairs = param_pairs(layer.excite1, layer.excite2)

        def f():
            for _, g in pairs:
                g.fill(0.0)
            cache = {}
            out, _ = fecam_forward(x, layer, cache)
            loss, dl = mse_loss(out, target)
            dx = fecam_backward(dl, layer, cache)
            return loss, [g for _, g in pairs] + [dx]

        assert grad_check(f, [p for p, _ in pairs] + [x]) < 1e-4


# --- fused path pinned to the per-row reference ----------------------------------------

def two_branch_sigmoid(z):
    att = np.empty_like(z)
    pos = z >= 0
    att[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    att[~pos] = expz / (1.0 + expz)
    return att


def reference_forward_backward(x, upstream, layer):
    """The unfused layer: per-row spectrum, two dense layers, two-branch sigmoid.

    Returns (out, att, dx, copies of the four parameter grads); the layer's
    grad buffers are zeroed first and left holding those grads.
    """
    dct = dct_matrix(layer.size, ORTHO)
    freq = np.empty_like(x)
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            freq[b, c] = dct @ x[b, c]
    z1 = dense_forward(layer.excite1, freq)
    h1 = relu_forward(z1)
    att = two_branch_sigmoid(dense_forward(layer.excite2, h1))
    out = x * att

    pairs = param_pairs(layer.excite1, layer.excite2)
    for _, g in pairs:
        g.fill(0.0)
    d_x = upstream * att
    d_z2 = upstream * x * att * (1.0 - att)
    d_h1 = dense_backward(layer.excite2, d_z2, h1)
    d_freq = dense_backward(layer.excite1, relu_backward(d_h1, z1), freq)
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            d_x[b, c] += dct.T @ d_freq[b, c]
    return out, att, d_x, [g.copy() for _, g in pairs]


@pytest.mark.parametrize("shape", [(32, 7, 96), (4, 21, 336)])
def test_fused_path_matches_per_row_reference(shape):
    rng = np.random.default_rng(59)
    layer = Excitation(shape[2], reduction=2, rng=rng)
    pairs = param_pairs(layer.excite1, layer.excite2)
    for value, _ in pairs:
        value += rng.normal(scale=0.3, size=value.shape)
    x = rng.normal(size=shape) * 2.0
    upstream = rng.normal(size=shape)
    ref_out, ref_att, ref_dx, ref_grads = reference_forward_backward(x, upstream, layer)

    for _, g in pairs:
        g.fill(0.0)
    cache = {}
    out, att = fecam_forward(x, layer, cache)
    dx = fecam_backward(upstream, layer, cache)
    grads = [g for _, g in pairs]
    for name, got, ref in zip(["out", "att", "dx", "w1", "b1", "w2", "b2"],
                              [out, att, dx, *grads], [ref_out, ref_att, ref_dx, *ref_grads]):
        bound = 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= bound, name


def test_forward_sees_in_place_weight_edits():
    rng = np.random.default_rng(61)
    layer = Excitation(16, rng=rng)
    x = rng.normal(size=(2, 3, 16))
    before = fecam_forward(x, layer)[1]
    layer.excite1.weight[3, :] += 0.5
    after = fecam_forward(x, layer)[1]
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after, reference_forward_backward(x, np.zeros_like(x), layer)[1],
                               rtol=0, atol=1e-12)


def test_forward_rejects_bad_length_and_non_finite_input():
    layer = Excitation(8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="batch, channels, length"):
        fecam_forward(np.ones((2, 8)), layer)
    with pytest.raises(ValueError, match="block expects 8"):
        fecam_forward(np.ones((1, 2, 10)), layer)
    x = np.ones((1, 2, 8))
    x[0, 1, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fecam_forward(x, layer)


def test_forward_and_backward_hold_few_batch_sized_arrays():
    # A (batch*channels, length) temporary held past its last use raises the
    # peak by one batch-sized array: 1.3 MiB for a batch of 256 windows, four
    # times evaluation's INFERENCE_BATCH. The sigmoid and ReLU passes reuse
    # their inputs' buffers, and without the input gradient backward holds
    # one batch-sized array fewer still.
    shape = (256, 7, 96)
    rng = np.random.default_rng(71)
    layer = Excitation(96, rng=rng)
    x, upstream = rng.normal(size=shape), rng.normal(size=shape)
    cache = {}
    peaks = []
    for step in (lambda: fecam_forward(x, layer, cache),
                 lambda: fecam_backward(upstream, layer, cache),
                 lambda: fecam_backward(upstream, layer, cache, input_grad=False)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert (peaks[0] < 3.0 * x.nbytes and peaks[1] < 2.75 * x.nbytes
            and peaks[2] < 2.25 * x.nbytes), [p / x.nbytes for p in peaks]


def channel_major_windows(n_windows, channels, length, seed):
    """n_windows input windows over a channel-major series, as the product makes them."""
    rows = np.random.default_rng(seed).normal(size=(n_windows + length, channels))
    scaler = Standardizer(rows.mean(axis=0), rows.std(axis=0))
    return make_windows(scaler.apply(rows), length, 1).inputs


def perturbed_layer(length, seed):
    rng = np.random.default_rng(seed)
    layer = Excitation(length, rng=rng)
    for value, _ in param_pairs(layer.excite1, layer.excite2):
        value += rng.normal(scale=0.3, size=value.shape)
    return layer


def test_the_fold_runs_in_the_blocks_dtype():
    # A float64 block folds with dct_matrix's float64 basis; a float32 block
    # with one cached, read-only float32 basis from the same cache, so no
    # float64 product enters its step.
    layer = perturbed_layer(96, seed=87)
    folded = _folded_weight(layer)
    assert folded.tobytes() == (dct_matrix(96, ORTHO).T @ layer.excite1.weight).tobytes()
    twin = ForecastModel(96, 96, dtype=np.float32).fecam
    for (value32, _), (value, _) in zip(param_pairs(twin.excite1, twin.excite2),
                                        param_pairs(layer.excite1, layer.excite2)):
        value32[:] = value
    basis32 = dct_matrix(96, ORTHO).astype(np.float32)
    dct_matrix.cache_clear()
    folded32 = _folded_weight(twin)
    assert folded32.dtype == np.float32
    assert folded32.tobytes() == (basis32.T @ twin.excite1.weight).tobytes()
    assert np.max(np.abs(folded32 - folded)) <= 1e-5 * np.max(np.abs(folded))
    # The weight gradient's D @ (...) product takes the same cached float32 basis.
    x = np.asarray(channel_major_windows(32, 3, 96, seed=88), dtype=np.float32)
    cache = {}
    out, _ = fecam_forward(x, twin, cache)
    fecam_backward(np.ones_like(out), twin, cache, input_grad=False)
    info = dct_matrix.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert not dct_matrix(96, ORTHO, np.dtype(np.float32)).flags.writeable


def test_gathered_batch_enters_the_layer_without_a_copy():
    windows = channel_major_windows(200, 3, 16, seed=81)
    batch = windows[np.random.default_rng(82).permutation(200)[:32]]
    block = Excitation(16, rng=np.random.default_rng(0))
    assert np.shares_memory(_check_input(batch, block), batch)
    sliced = windows[5:37]
    assert not np.shares_memory(_check_input(sliced, block), sliced)


@pytest.mark.parametrize("n_windows", [1, 63, 64, 65, 200])
def test_mean_attention_is_the_batched_sum_of_forward_maps(n_windows):
    windows = channel_major_windows(n_windows, 3, 16, seed=n_windows)
    layer = perturbed_layer(16, seed=83)
    total = np.zeros((3, 16))
    assert INFERENCE_BATCH == 64
    for start in range(0, n_windows, INFERENCE_BATCH):
        total += fecam_forward(windows[start:start + INFERENCE_BATCH], layer)[1].sum(axis=0)
    assert mean_attention(windows, layer).tobytes() == (total / n_windows).tobytes()


def test_mean_attention_matches_an_independent_reference():
    # 200 windows are three batches of 64 and one of 8. The reference shares
    # no code with the layer: its own cosine basis, the spectrum by einsum,
    # both dense layers and the logistic function written out.
    windows = channel_major_windows(200, 7, 96, seed=87)
    layer = perturbed_layer(96, seed=88)
    k = np.arange(96)
    basis = np.sqrt(2 / 96) * np.cos(np.pi * np.outer(k, k + 0.5) / 96)
    basis[0] /= np.sqrt(2)
    spectrum = np.einsum("kn,wcn->wck", basis, windows)
    hidden = np.maximum(spectrum @ layer.excite1.weight + layer.excite1.bias, 0.0)
    att = 1.0 / (1.0 + np.exp(-(hidden @ layer.excite2.weight + layer.excite2.bias)))
    error = np.abs(mean_attention(windows, layer) - att.mean(axis=0))
    assert float(error.max()) <= 1e-12, error.max()


def test_mean_attention_checks_every_batch():
    layer = Excitation(16, rng=np.random.default_rng(0))
    windows = np.array(channel_major_windows(200, 3, 16, seed=84))
    windows[130, 2, 7] = np.nan  # in the third batch of 64
    with pytest.raises(ValueError, match="non-finite"):
        mean_attention(windows, layer)
    with pytest.raises(ValueError, match="block expects 16"):
        mean_attention(np.ones((5, 3, 12)), layer)
    for bad in (np.ones((5, 16)), np.ones((0, 3, 16))):
        with pytest.raises(ValueError, match="n >= 1, channels, length"):
            mean_attention(bad, layer)


def test_mean_attention_holds_one_batch_of_buffers():
    # Input copy, hidden activations and attention are 2.5 batch-sized arrays
    # whatever the window count; the finiteness mask and the folded weight
    # add about 0.3. A loop over fecam_forward peaks at 3.6: it also forms
    # the rescaled input x * att.
    windows = channel_major_windows(2_000, 7, 96, seed=85)
    layer = perturbed_layer(96, seed=86)
    batch_bytes = 64 * 7 * 96 * 8
    # The basis in the layer's call form is cached, not the pass's own.
    dct_matrix(96, ORTHO, layer.excite1.weight.dtype)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mean_attention(windows, layer)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * batch_bytes, peak / batch_bytes


# --- state round trip -----------------------------------------------------------------

def test_state_arrays_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    src = ForecastModel(8, 4, seed=7)
    for value, _ in param_pairs(src.fecam.excite1, src.fecam.excite2):
        value += rng.normal(size=value.shape)
    save_model(tmp_path / "model.json", src)
    dst, _ = load_model(tmp_path / "model.json")
    for name, value in src.state_arrays().items():
        np.testing.assert_array_equal(dst.state_arrays()[name], value)
    x = rng.normal(size=(1, 2, 8))
    np.testing.assert_array_equal(fecam_forward(x, src.fecam)[0], fecam_forward(x, dst.fecam)[0])


def test_load_state_shape_mismatch(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, ForecastModel(8, 4))
    payload = json.loads(path.read_text())
    zeros = base64.b64encode(np.zeros(4).tobytes()).decode("ascii")
    payload["arrays"]["fecam.excite1.weight"] = {"shape": [2, 2], "data": zeros}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="fecam.excite1.weight"):
        load_model(path)


# --- attention export -------------------------------------------------------------------

def test_export_uniform_attention(tmp_path):
    att = np.full((3, 2, 4), 0.5)
    path = tmp_path / "att.csv"
    export_attention(att.mean(axis=0), path)
    reread = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(reread, att.mean(axis=0).T, atol=1e-6)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "channel_0,channel_1"
    assert all(line == "0.5,0.5" for line in lines[1:])


def test_export_shape_contract(tmp_path):
    att = np.random.default_rng(47).uniform(0.1, 0.9, size=(5, 7, 96))
    path = tmp_path / "att.csv"
    export_attention(att.mean(axis=0), path)
    reread = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(reread, att.mean(axis=0).T, atol=1e-6)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 97  # header + one row per frequency
    assert all(len(line.split(",")) == 7 for line in lines)


def test_export_round_trip_precision(tmp_path):
    rng = np.random.default_rng(53)
    att = rng.uniform(1e-4, 1.0 - 1e-4, size=(4, 3, 8))
    path = tmp_path / "att.csv"
    export_attention(att.mean(axis=0), path)
    reread = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(reread, att.mean(axis=0).T, atol=1e-6)


def test_export_rejects_unaveraged_map(tmp_path):
    path = tmp_path / "att.csv"
    with pytest.raises(ValueError, match="channels, length"):
        export_attention(np.full((3, 2, 4), 0.5), path)
    assert not path.exists()
