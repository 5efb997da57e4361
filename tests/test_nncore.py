"""Tests for the reverse-mode stack.

Gradient correctness is established against central finite differences via
grad_check; the quadratic cases (linear maps, MSE) are exact for central
differences up to rounding, so their tolerances are much tighter.
"""

import base64
import warnings

import numpy as np
import pytest

from fecam.nncore import (
    CHECKPOINT_VERSION,
    AdamState,
    DenseLayer,
    adam_step,
    dense_backward,
    dense_forward,
    load_checkpoint,
    mse_loss,
    relu_backward,
    relu_forward,
    save_checkpoint,
    sigmoid_backward,
    sigmoid_forward,
)

from grad_check import grad_check
from param_pairs import param_pairs


def make_layer(in_dim, out_dim, seed=0):
    return DenseLayer(in_dim, out_dim, np.random.default_rng(seed))


# --- dense layer -------------------------------------------------------------

def test_identity_weight_passes_input_through():
    layer = make_layer(4, 4)
    layer.weight = np.eye(4)
    layer.bias = np.zeros(4)
    x = np.arange(24.0).reshape(2, 3, 4)
    np.testing.assert_array_equal(dense_forward(layer, x), x)


def test_zero_weight_outputs_bias():
    layer = make_layer(4, 3)
    layer.weight = np.zeros((4, 3))
    layer.bias = np.array([1.0, -2.0, 0.5])
    y = dense_forward(layer, np.ones((2, 2, 4)))
    np.testing.assert_array_equal(y, np.broadcast_to(layer.bias, (2, 2, 3)))


def test_init_bounds_and_seeding():
    layer = make_layer(16, 8, seed=42)
    bound = np.sqrt(1.0 / 16)
    assert np.all(np.abs(layer.weight) <= bound)
    assert np.all(np.abs(layer.bias) <= bound)
    twin = make_layer(16, 8, seed=42)
    np.testing.assert_array_equal(layer.weight, twin.weight)
    np.testing.assert_array_equal(layer.bias, twin.bias)


def test_dense_shape_errors():
    layer = make_layer(4, 3)
    with pytest.raises(ValueError):
        dense_forward(layer, np.ones((2, 5)))
    with pytest.raises(ValueError):
        dense_backward(layer, np.ones((2, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        DenseLayer(0, 3)


def test_dense_grads_accumulate_until_zeroed():
    layer = make_layer(3, 2, seed=1)
    x = np.ones((1, 1, 3))
    up = np.ones((1, 1, 2))
    dense_backward(layer, up, x)
    once = layer.weight_grad.copy()
    dense_backward(layer, up, x)
    np.testing.assert_allclose(layer.weight_grad, 2 * once)
    layer.weight_grad.fill(0.0)
    layer.bias_grad.fill(0.0)
    assert not layer.weight_grad.any() and not layer.bias_grad.any()


def test_dense_gradient_check():
    rng = np.random.default_rng(5)
    layer = make_layer(8, 4, seed=5)
    x = rng.normal(size=(2, 3, 8))
    target = rng.normal(size=(2, 3, 4))

    def f():
        layer.weight_grad.fill(0.0)
        layer.bias_grad.fill(0.0)
        y = dense_forward(layer, x)
        loss, dl = mse_loss(y, target)
        dx = dense_backward(layer, dl, x)
        return loss, [layer.weight_grad, layer.bias_grad, dx]

    assert grad_check(f, [layer.weight, layer.bias, x]) < 1e-4


@pytest.mark.parametrize("shape", [(32, 7, 96), (256, 7, 96), (32, 1, 96), (96,)])
@pytest.mark.parametrize("strided", [False, True])
def test_flat_products_match_the_stacked_matmul(shape, strided):
    # The layer runs one (rows, in_dim) product; numpy's stacked matmul over
    # the leading axes sums in another order, so only rounding may differ.
    rng = np.random.default_rng(11)
    layer = make_layer(96, 96, seed=11)
    x = rng.normal(size=shape)
    up = rng.normal(size=shape)
    if strided:  # the layout of a batch gathered from window views
        x = np.asfortranarray(x)
        up = np.asfortranarray(up)
    y = dense_forward(layer, x)
    assert y.shape == shape
    np.testing.assert_allclose(y, np.matmul(x, layer.weight) + layer.bias, rtol=0, atol=1e-12)
    dx = dense_backward(layer, up, x)
    assert dx.shape == shape
    np.testing.assert_allclose(dx, np.matmul(up, layer.weight.T), rtol=0, atol=1e-12)


# --- activations ---------------------------------------------------------------

def test_activation_point_values():
    assert sigmoid_forward(np.array(0.0)) == 0.5
    np.testing.assert_array_equal(relu_forward(np.array([-3.0, 3.0])), [0.0, 3.0])


def test_relu_derivative_at_zero_is_zero():
    d = relu_backward(np.ones(3), np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(d, [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    y = sigmoid_forward(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-300)
    assert y[1] == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_matches_two_branch_formula_without_warnings():
    x = np.concatenate([np.linspace(-800.0, 800.0, 100001), [-1e308, 1e308]])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    expected[~pos] = expx / (1.0 + expx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = sigmoid_forward(x)
    assert np.max(np.abs(y - expected)) <= 1e-15
    assert np.all(y[x >= -700.0] > 0.0)


def test_activation_gradient_checks():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 6))
    target = rng.normal(size=(2, 2, 6))

    def f_relu():
        y = relu_forward(x)
        loss, dl = mse_loss(y, target)
        return loss, [relu_backward(dl, x)]

    def f_sig():
        y = sigmoid_forward(x)
        loss, dl = mse_loss(y, target)
        return loss, [sigmoid_backward(dl, y)]

    assert grad_check(f_relu, [x]) < 1e-4
    assert grad_check(f_sig, [x]) < 1e-4


def test_activations_written_in_place_give_the_same_bits():
    rng = np.random.default_rng(29)
    x = np.concatenate([rng.normal(size=200) * 30.0, [-1e308, -0.0, 0.0, 1e308]])
    upstream = rng.normal(size=x.shape)
    y = sigmoid_forward(x)
    for fn, args in ((sigmoid_forward, (x,)), (sigmoid_backward, (upstream, y)),
                     (relu_backward, (upstream, x))):
        want = fn(*args)
        fresh = np.empty_like(want)
        assert fn(*args, out=fresh) is fresh and fresh.tobytes() == want.tobytes()
        first = args[0].copy()
        assert fn(first, *args[1:], out=first) is first and first.tobytes() == want.tobytes()


# --- loss -------------------------------------------------------------------------

def test_sigmoid_and_mse_leave_their_inputs_unchanged():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 4, 5)) * 50.0
    pred, target = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
    saved = [a.copy() for a in (x, pred, target)]
    y = sigmoid_forward(x)
    _, grad = mse_loss(pred, target)
    for arr, before in zip((x, pred, target), saved):
        assert arr.tobytes() == before.tobytes()
    assert not np.shares_memory(y, x)
    assert not np.shares_memory(grad, pred) and not np.shares_memory(grad, target)


def test_mse_trivial_values():
    x = np.ones((2, 3, 4))
    assert mse_loss(x, x)[0] == 0.0
    assert mse_loss(x + 1.0, x)[0] == 1.0


def test_mse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mse_loss(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        mse_loss(np.empty(0), np.empty(0))


def test_mse_gradient_is_exact_for_central_differences():
    rng = np.random.default_rng(17)
    pred = rng.normal(size=(2, 2, 3))
    target = rng.normal(size=(2, 2, 3))

    def f():
        loss, dl = mse_loss(pred, target)
        return loss, [dl]

    assert grad_check(f, [pred]) < 1e-6


# --- Adam --------------------------------------------------------------------------

def test_zero_gradient_leaves_parameters_unchanged():
    p = [np.array([1.0, -2.0])]
    state = AdamState(learning_rate=0.5)
    adam_step(p, [np.zeros(2)], state)
    np.testing.assert_array_equal(p[0], [1.0, -2.0])
    assert state.step == 1


def test_first_step_magnitude():
    # Bias correction makes the first update ~ lr * g / (|g| + eps).
    p = [np.array([0.0])]
    adam_step(p, [np.array([1.0])], AdamState(learning_rate=0.1))
    assert p[0][0] == pytest.approx(-0.09999999900000002, abs=1e-15)  # frozen


def test_adam_converges_on_quadratic():
    p = [np.array([0.0])]
    state = AdamState(learning_rate=0.1)
    for _ in range(200):
        adam_step(p, [2.0 * (p[0] - 3.0)], state)
    assert abs(p[0][0] - 3.0) < 0.1


def test_adam_is_deterministic():
    def run():
        p = [np.full(3, 0.5)]
        state = AdamState(learning_rate=0.01)
        for k in range(10):
            adam_step(p, [np.full(3, 0.1 * (k + 1))], state)
        return p[0]

    np.testing.assert_array_equal(run(), run())


def test_adam_matches_textbook_expression_bit_for_bit():
    # The in-place update must round exactly like the plain expression below,
    # on separate arrays and on their concatenation alike.
    def textbook(params, grads, moments, step, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
        bias1, bias2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for p, g, (m, v) in zip(params, grads, moments):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

    rng = np.random.default_rng(21)
    shapes = [(4, 3), (3,), (5, 2)]
    start = [rng.normal(size=s) for s in shapes]
    separate = [a.copy() for a in start]
    flat = [np.concatenate([a.ravel() for a in start])]
    expected = [a.copy() for a in start]
    moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
    state_separate, state_flat = AdamState(learning_rate=0.01), AdamState(learning_rate=0.01)
    for step in range(1, 51):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        textbook(expected, grads, moments, step)
        adam_step(separate, grads, state_separate)
        adam_step(flat, [np.concatenate([g.ravel() for g in grads])], state_flat)
        for got, want, m, v, (want_m, want_v) in zip(separate, expected, state_separate.first_moment,
                                                     state_separate.second_moment, moments):
            assert got.tobytes() == want.tobytes()
            assert m.tobytes() == want_m.tobytes() and v.tobytes() == want_v.tobytes()
        assert flat[0].tobytes() == np.concatenate([a.ravel() for a in expected]).tobytes()


def test_adam_dimension_mismatch():
    state = AdamState()
    with pytest.raises(ValueError):
        adam_step([np.zeros(2)], [np.zeros(2), np.zeros(2)], state)
    adam_step([np.zeros(2)], [np.zeros(2)], state)
    with pytest.raises(ValueError):
        adam_step([np.zeros(3)], [np.zeros(3)], state)


# --- gradient checker ----------------------------------------------------------------

def test_grad_check_is_tight_on_linear_objective():
    w = np.array([1.0, 2.0, 3.0])
    x = np.array([0.3, -0.2, 0.9])

    def f():
        return float(w @ x), [w.copy()]

    assert grad_check(f, [x]) < 1e-8


def test_grad_check_flags_broken_backward():
    x = np.array([0.7, -1.2])

    def f():
        loss, dl = mse_loss(x, np.zeros(2))
        return loss, [2.0 * dl]  # deliberately doubled

    err = grad_check(f, [x])
    # |2g - g| / max(|2g|, |g|) = 0.5 regardless of g.
    assert err == pytest.approx(0.5, abs=1e-6)
    assert err > 1e-4


def test_grad_check_step_bounds():
    def f():
        return 0.0, [np.zeros(1)]

    with pytest.raises(ValueError):
        grad_check(f, [np.zeros(1)], step=1e-2)
    with pytest.raises(ValueError):
        grad_check(f, [np.zeros(1)], step=1e-8)


def test_composite_chain_grad_check_over_random_shapes():
    # dense -> relu -> dense -> sigmoid -> mse, random small shapes.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        length = int(rng.integers(2, 13)) * 2
        hidden = length // 2
        lin1 = DenseLayer(length, hidden, rng)
        lin2 = DenseLayer(hidden, length, rng)
        x = rng.normal(size=(b, c, length))
        target = rng.normal(size=(b, c, length))

        def f():
            for _, g in param_pairs(lin1, lin2):
                g.fill(0.0)
            h = dense_forward(lin1, x)
            a = relu_forward(h)
            z = dense_forward(lin2, a)
            y = sigmoid_forward(z)
            loss, dl = mse_loss(y, target)
            dz = sigmoid_backward(dl, y)
            da = dense_backward(lin2, dz, a)
            dh = relu_backward(da, h)
            dx = dense_backward(lin1, dh, x)
            return loss, [g for _, g in param_pairs(lin1, lin2)] + [dx]

        params = [p for p, _ in param_pairs(lin1, lin2)] + [x]
        assert grad_check(f, params) < 1e-4


def test_finite_inputs_never_produce_nonfinite():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1e3, 1e3, size=(2, 2, 8))
    layer = make_layer(8, 8, seed=3)
    y = sigmoid_forward(dense_forward(layer, relu_forward(x)))
    assert np.all(np.isfinite(y))


# --- checkpoints ------------------------------------------------------------------------

def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(23)
    arrays = {
        "weight": rng.normal(size=(4, 3)),
        "bias": rng.normal(size=3),
        "scalar": np.array(2.5),
        "extremes": np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
        "empty": np.zeros((0, 3)),
        "fortran": np.asfortranarray(rng.normal(size=(3, 5)))[:, 1:4],
        "ints": np.arange(-3, 3).reshape(2, 3),
    }
    assert not arrays["fortran"].flags.c_contiguous
    path = tmp_path / "model.json"
    save_checkpoint(path, arrays, meta={"seq_len": 96})
    loaded, meta = load_checkpoint(path)
    assert meta == {"seq_len": 96}
    assert set(loaded) == set(arrays)
    for name in arrays:
        expected = np.asarray(arrays[name], dtype=np.float64)
        assert loaded[name].dtype == np.float64 and loaded[name].flags.writeable
        assert loaded[name].shape == arrays[name].shape
        assert loaded[name].tobytes() == expected.tobytes()


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": %d, "arrays": {}}'
                    % CHECKPOINT_VERSION)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "fecam-checkpoint", "version": 99, "arrays": {}}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_data_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    data = base64.b64encode(np.array([1.0, 2.0]).tobytes()).decode("ascii")
    path.write_text('{"format": "fecam-checkpoint", "version": %d, '
                    '"arrays": {"w": {"shape": [2, 2], "data": "%s"}}}' % (CHECKPOINT_VERSION, data))
    with pytest.raises(ValueError, match="'w': data length does not match shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("bits", [0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0000,
                                  0xFFF0_0000_0000_0000, 0xFFF8_0000_0000_0000,
                                  0x7FF0_0000_0000_0001],
                         ids=["nan", "inf", "-inf", "negative-nan", "signalling-nan"])
def test_checkpoint_rejects_non_finite_array(tmp_path, bits):
    path = tmp_path / "bad.json"
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    w.view(np.uint64)[0, 1] = bits
    save_checkpoint(path, {"ok": np.ones(2), "w": w})
    with pytest.raises(ValueError, match="'w' contains non-finite"):
        load_checkpoint(path)
