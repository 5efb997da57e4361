"""Tests for the forecasting model, training loop, and ablation harness."""

import tracemalloc

import numpy as np
import pytest

from fecam import forecaster
from fecam.attention import Excitation, fecam_backward, fecam_forward
from fecam.data import (
    WindowedDataset,
    chronological_split,
    fit_standardizer,
    make_windows,
)
from fecam.forecaster import (
    DivergenceError,
    ForecastModel,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    model_backward,
    model_forward,
    persistence_report,
    save_model,
    train,
)
from fecam.nncore import AdamState, DenseLayer, adam_step, dense_backward, mse_loss

from grad_check import grad_check
from param_pairs import param_pairs
from synth_series import synth_series


def tiny_pipeline(lookback=16, horizon=8, channels=2, length=400, noise=0.1, seed=0):
    series = synth_series("sinusoid_mix", length, channels, noise_std=noise, seed=seed)
    splits = chronological_split(series, (7, 2, 2), min_slice_len=lookback + horizon)
    scaler = fit_standardizer(splits[0])
    return tuple(make_windows(scaler.apply(s), lookback, horizon) for s in splits)


def identity_projection(model):
    model.projection.weight[:] = np.eye(model.lookback)
    model.projection.bias[:] = 0.0
    return model


# --- config -------------------------------------------------------------------

def test_config_validation():
    TrainConfig()  # defaults are valid
    with pytest.raises(ValueError):
        TrainConfig(lookback=0)
    with pytest.raises(ValueError):
        TrainConfig(lookback=96, reduction=5)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)


# --- model forward/backward ------------------------------------------------------

def test_zeroed_attention_with_identity_projection_halves_input():
    model = identity_projection(ForecastModel(8, 8, with_fecam=True))
    for value, _ in param_pairs(model.fecam.excite1, model.fecam.excite2):
        value[:] = 0.0
    x = np.random.default_rng(0).normal(size=(2, 3, 8))
    np.testing.assert_array_equal(model_forward(model, x), x / 2)


def test_plain_arm_with_identity_projection_is_identity():
    model = identity_projection(ForecastModel(8, 8, with_fecam=False))
    x = np.random.default_rng(1).normal(size=(2, 3, 8))
    np.testing.assert_array_equal(model_forward(model, x), x)


def test_forward_shape_and_validation():
    model = ForecastModel(8, 4)
    y = model_forward(model, np.ones((3, 5, 8)))
    assert y.shape == (3, 5, 4)
    with pytest.raises(ValueError):
        model_forward(model, np.ones((3, 5, 7)))
    with pytest.raises(ValueError):
        model_forward(model, np.ones((5, 8)))


def test_backward_requires_cache():
    model = ForecastModel(8, 4)
    with pytest.raises(ValueError):
        model_backward(model, np.ones((1, 1, 4)), {})


def test_full_model_gradient_check():
    rng = np.random.default_rng(3)
    model = ForecastModel(8, 4, reduction=2, seed=3)
    x = rng.normal(size=(2, 3, 8))
    target = rng.normal(size=(2, 3, 4))

    def f():
        model.zero_grad()
        cache = {}
        pred = model_forward(model, x, cache)
        loss, d_loss = mse_loss(pred, target)
        model_backward(model, d_loss, cache)
        return loss, [model.grads]

    assert grad_check(f, [model.values]) < 1e-4


def test_shared_projection_init_across_arms():
    cfg = TrainConfig(lookback=16, horizon=8, seed=7)
    with_att = build_model(cfg, with_fecam=True)
    plain = build_model(cfg, with_fecam=False)
    np.testing.assert_array_equal(with_att.projection.weight, plain.projection.weight)
    np.testing.assert_array_equal(with_att.projection.bias, plain.projection.bias)
    assert plain.fecam is None


# --- training ----------------------------------------------------------------------

def test_zero_learning_rate_is_a_no_op():
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=0.0, epochs=3, early_stop_patience=10)
    model = build_model(cfg)
    before = model.values.copy()
    model, history = train(model, train_ds, val_ds, cfg)
    np.testing.assert_array_equal(model.values, before)
    losses = [row[1] for row in history]
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)


def test_train_loss_is_the_element_weighted_mean_of_the_batch_losses(monkeypatch):
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=1e-3, batch_size=30, epochs=3,
                      early_stop_patience=3)
    assert train_ds.n_windows % cfg.batch_size  # the last batch is a partial one
    batches = []

    def spy(*args):
        loss, d_loss = mse_loss(*args)
        batches.append((loss, args[0].size))
        return loss, d_loss

    monkeypatch.setattr(forecaster, "mse_loss", spy)
    _, history = train(build_model(cfg), train_ds, val_ds, cfg)
    per_epoch = -(-train_ds.n_windows // cfg.batch_size)
    assert len(history) == cfg.epochs and len(batches) == per_epoch * cfg.epochs
    for epoch, train_loss, _ in history:
        epoch_batches = batches[epoch * per_epoch:(epoch + 1) * per_epoch]
        assert epoch_batches[-1][1] < epoch_batches[0][1]
        weighted = 0.0
        for loss, size in epoch_batches:
            weighted += loss * size
        assert train_loss == weighted / sum(size for _, size in epoch_batches)


def test_training_reduces_loss():
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=1e-3, epochs=5, lr_decay=1.0)
    model, history = train(build_model(cfg), train_ds, val_ds, cfg)
    assert history[-1][1] < history[0][1]


def test_training_is_deterministic():
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=1e-3, epochs=3, seed=11)

    def run():
        model, history = train(build_model(cfg), train_ds, val_ds, cfg)
        return history, model.projection.weight.copy()

    history_a, weights_a = run()
    history_b, weights_b = run()
    assert history_a == history_b
    np.testing.assert_array_equal(weights_a, weights_b)


def test_early_stopping_halts_before_epoch_budget():
    train_ds, val_ds, _ = tiny_pipeline()
    # lr=0 never improves validation, so patience is exhausted immediately.
    cfg = TrainConfig(lookback=16, horizon=8, lr=0.0, epochs=50, early_stop_patience=2)
    _, history = train(build_model(cfg), train_ds, val_ds, cfg)
    assert len(history) == 3  # epoch 0 sets the best, two stale epochs stop it


def test_best_validation_weights_are_restored():
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=5e-3, epochs=8, lr_decay=1.0,
                      early_stop_patience=8)
    model, history = train(build_model(cfg), train_ds, val_ds, cfg)
    best_val = min(row[2] for row in history)
    assert evaluate(model, val_ds).mse == pytest.approx(best_val, rel=1e-12)


def test_divergence_aborts_with_diagnostic():
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=1e-3, epochs=2)
    model = build_model(cfg)
    model.projection.weight[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="epoch 0"):
        train(model, train_ds, val_ds, cfg)


def test_dataset_window_shape_checked():
    train_ds, val_ds, _ = tiny_pipeline(lookback=16, horizon=8)
    cfg = TrainConfig(lookback=32, horizon=8)
    with pytest.raises(ValueError):
        train(build_model(cfg), train_ds, val_ds, cfg)


# --- evaluation ----------------------------------------------------------------------

def test_perfect_and_biased_predictors():
    model = identity_projection(ForecastModel(4, 4, with_fecam=False))
    x = np.random.default_rng(5).normal(size=(6, 2, 4))
    perfect = WindowedDataset(x, x.copy())
    report = evaluate(model, perfect)
    assert report.mse == 0.0 and report.mae == 0.0
    shifted = WindowedDataset(x, x - 1.0)
    report = evaluate(model, shifted)
    assert report.mse == pytest.approx(1.0) and report.mae == pytest.approx(1.0)


@pytest.mark.parametrize("inputs, targets", [((6, 2, 5), (6, 2, 4)), ((6, 2, 4), (6, 2, 3))],
                         ids=["lookback", "horizon"])
def test_evaluate_checks_the_window_arrays_against_the_model(inputs, targets):
    # The dataset's lengths are its arrays' own, so these are what is checked.
    model = ForecastModel(4, 4, with_fecam=False)
    ds = WindowedDataset(np.zeros(inputs), np.zeros(targets))
    with pytest.raises(ValueError, match=r"eval dataset windows \(\d, \d\) do not match "
                                         r"model \(4, 4\)"):
        evaluate(model, ds)


@pytest.mark.parametrize("targets", [(6, 1, 4), (5, 2, 4)], ids=["channels", "windows"])
@pytest.mark.parametrize("score", ["evaluate", "persistence"])
def test_scoring_rejects_targets_that_do_not_pair_with_the_inputs(targets, score):
    # Unpaired arrays used to broadcast into a score, or fail in numpy.
    ds = WindowedDataset(np.zeros((6, 2, 4)), np.ones(targets))
    with pytest.raises(ValueError, match=r"dataset has \(windows, channels\) \(6, 2\) in its "
                                         r"inputs but \(\d, \d\) in its targets"):
        if score == "evaluate":
            evaluate(ForecastModel(4, 4, with_fecam=False), ds)
        else:
            persistence_report(ds)


def test_step_curve_shape_and_mean():
    train_ds, _, test_ds = tiny_pipeline()
    model = build_model(TrainConfig(lookback=16, horizon=8))
    report = evaluate(model, test_ds)
    assert report.step_mse.shape == (8,)
    assert report.mse == pytest.approx(float(report.step_mse.mean()), rel=1e-12)


def test_metrics_invariant_to_batch_partitioning(monkeypatch):
    _, _, test_ds = tiny_pipeline(length=2000)
    assert test_ds.n_windows > 5 * forecaster.INFERENCE_BATCH
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=2))
    reports = []
    for batch in (10_000, forecaster.INFERENCE_BATCH, 7):  # evaluate reads the constant per call
        monkeypatch.setattr(forecaster, "INFERENCE_BATCH", batch)
        reports.append(evaluate(model, test_ds))
    full = reports[0]
    for chunked in reports[1:]:
        assert full.mse == pytest.approx(chunked.mse, rel=1e-12)
        assert full.mae == pytest.approx(chunked.mae, rel=1e-12)
        np.testing.assert_allclose(chunked.step_mse, full.step_mse, rtol=1e-12, atol=0)


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
def test_window_views_and_contiguous_copies_give_identical_results(with_fecam, monkeypatch):
    train_ds, _, test_ds = tiny_pipeline(lookback=16, horizon=8, channels=3)
    assert not test_ds.inputs.flags.writeable
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=3), with_fecam=with_fecam)
    rng = np.random.default_rng(1)
    for batch in (test_ds.inputs[5:37], train_ds.inputs[rng.permutation(train_ds.n_windows)[:32]]):
        copy = np.ascontiguousarray(batch)
        if with_fecam:
            for got, want in zip(fecam_forward(batch, model.fecam),
                                 fecam_forward(copy, model.fecam)):
                assert got.tobytes() == want.tobytes()
        assert model_forward(model, batch).tobytes() == model_forward(model, copy).tobytes()
    contiguous = WindowedDataset(np.ascontiguousarray(test_ds.inputs),
                                 np.ascontiguousarray(test_ds.targets))
    for batch_size in (7, 256):
        monkeypatch.setattr(forecaster, "INFERENCE_BATCH", batch_size)
        got, want = evaluate(model, test_ds), evaluate(model, contiguous)
        assert (got.mse, got.mae) == (want.mse, want.mae)
        assert got.step_mse.tobytes() == want.step_mse.tobytes()


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
def test_backward_on_window_views_equals_contiguous_copies(with_fecam):
    train_ds, _, test_ds = tiny_pipeline(lookback=16, horizon=8, channels=3)
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=4), with_fecam=with_fecam)
    idx = np.random.default_rng(2).permutation(train_ds.n_windows)[:32]
    # The same training windows over a row-major copy of the standardized split.
    series = synth_series("sinusoid_mix", 400, 3, noise_std=0.1, seed=0)
    train_rows = chronological_split(series, (7, 2, 2), min_slice_len=24)[0]
    row_major = make_windows(np.ascontiguousarray(fit_standardizer(train_rows).apply(train_rows)),
                             16, 8)
    strided = ((test_ds.inputs[5:37], test_ds.targets[5:37]),
               (row_major.inputs[idx], row_major.targets[idx]))
    gathered = (train_ds.inputs[idx], train_ds.targets[idx])

    def step(x, y):
        model.zero_grad()
        cache = {}
        loss, d_loss = mse_loss(model_forward(model, x, cache), y)
        model_backward(model, d_loss, cache)
        results = [np.array(loss), model.grads.copy()]
        if with_fecam:
            layer_cache = {}
            out, att = fecam_forward(x, model.fecam, layer_cache)
            results += [out, att, fecam_backward(np.cos(out), model.fecam, layer_cache)]
            # One copy at the layer edge makes every later reshape a view.
            assert layer_cache["x"].flags.c_contiguous
        return results

    for x, y in strided:
        assert not x.flags.c_contiguous
        for got, want in zip(step(x, y), step(np.ascontiguousarray(x), y), strict=True):
            assert got.tobytes() == want.tobytes()
    # The product's channel-major windows gather straight into the layer's layout.
    assert gathered[0].flags.c_contiguous and gathered[1].flags.c_contiguous
    for got, want in zip(step(*gathered), step(*strided[1]), strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
def test_skipping_the_input_gradient_accumulates_the_same_grads(with_fecam):
    # model_backward skips the model's input gradient; its parameter grads
    # equal those of the explicit chain that forms it.
    train_ds, _, test_ds = tiny_pipeline(lookback=16, horizon=8, channels=3)
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=5), with_fecam=with_fecam)
    idx = np.random.default_rng(3).permutation(train_ds.n_windows)[:32]
    view = (test_ds.inputs[5:37], test_ds.targets[5:37])
    for x, y in (view, (np.ascontiguousarray(view[0]), view[1]),
                 (train_ds.inputs[idx], train_ds.targets[idx])):
        grads = []
        for chain in (False, True):
            model.zero_grad()
            cache = {}
            _, d_loss = mse_loss(model_forward(model, x, cache), y)
            if not chain:
                assert model_backward(model, d_loss, cache) is None
            elif with_fecam:
                d_feat = dense_backward(model.projection, d_loss, cache["proj_in"])
                assert fecam_backward(d_feat, model.fecam, cache,
                                      input_grad=True).shape == x.shape
            else:
                assert dense_backward(model.projection, d_loss, cache["proj_in"],
                                      input_grad=True).shape == x.shape
            grads.append(model.grads.tobytes())
        assert grads[0] == grads[1]


def test_train_does_not_ask_for_the_input_gradient(monkeypatch):
    train_ds, val_ds, _ = tiny_pipeline()
    asked = []

    def spy(*args, **kwargs):
        asked.append(kwargs.get("input_grad", True))
        return fecam_backward(*args, **kwargs)

    monkeypatch.setattr(forecaster, "fecam_backward", spy)
    train(build_model(TrainConfig(lookback=16, horizon=8)), train_ds, val_ds,
          TrainConfig(lookback=16, horizon=8, epochs=1))
    assert asked and not any(asked)


def model_step(model, x, y):
    """One zero_grad -> forward -> loss -> backward on model; returns (pred, cache, d_loss)."""
    model.zero_grad()
    cache = {}
    pred = model_forward(model, x, cache)
    _, d_loss = mse_loss(pred, y)
    model_backward(model, d_loss, cache)
    return pred, cache, d_loss


def float32_twin(model):
    """A float32 model holding model's weights, as train builds for its steps."""
    twin = ForecastModel(model.lookback, model.horizon, model.reduction,
                         with_fecam=model.fecam is not None, dtype=np.float32)
    np.copyto(twin.values, model.values)
    return twin


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_a_step_keeps_the_dtype_it_is_given(dtype, with_fecam):
    # One float64 array anywhere in the float32 step would promote every later
    # product, so train would run at float64 speed and nothing else would fail.
    train_ds, _, _ = tiny_pipeline(lookback=16, horizon=8, channels=3)
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=4), with_fecam=with_fecam)
    if dtype is np.float32:
        model = float32_twin(model)
    idx = np.random.default_rng(2).permutation(train_ds.n_windows)[:32]
    pred, cache, d_loss = model_step(model, train_ds.inputs[idx].astype(dtype),
                                     train_ds.targets[idx].astype(dtype))
    assert sorted(cache) == (["att", "h1", "proj_in", "x"] if with_fecam else ["proj_in"])
    arrays = {"pred": pred, "d_loss": d_loss, "grads": model.grads, **cache}
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.dtype(dtype))


def test_train_steps_a_float32_model_and_updates_the_float64_one(monkeypatch):
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=1e-3, epochs=1)
    seen = []

    def spy(model, x, cache=None):
        seen.append((model.values.dtype.name, np.asarray(x).dtype.name, cache is not None))
        return model_forward(model, x, cache)

    monkeypatch.setattr(forecaster, "model_forward", spy)
    model, _ = train(build_model(cfg), train_ds, val_ds, cfg)
    steps = [(values, x) for values, x, cached in seen if cached]
    scores = [(values, x) for values, x, cached in seen if not cached]
    assert len(steps) == -(-train_ds.n_windows // cfg.batch_size)
    assert set(steps) == {("float32", "float32")}
    assert scores and set(scores) == {("float64", "float64")}  # validation stays float64
    assert model.values.dtype == model.grads.dtype == np.float64


def test_float32_step_grads_match_a_float64_step():
    # Tolerance 1e-4 on each array's ||g32 - g64|| / ||g64||: float32 rounds at
    # 6e-8, and the weight gradients sum B*C = 128 terms each, so rounding alone
    # stays near sqrt(128) * 6e-8 ~ 7e-7. This test's worst array reads 6.4e-7;
    # a wrong or missing gradient term reads O(1).
    train_ds, val_ds, _ = tiny_pipeline(lookback=96, horizon=96, channels=4, length=1200)
    cfg = TrainConfig(lookback=96, horizon=96, lr=3e-3, epochs=3, lr_decay=1.0,
                      early_stop_patience=3, seed=1)
    untrained = build_model(cfg)
    trained, _ = train(build_model(cfg), train_ds, val_ds, cfg)
    worst = 0.0
    for model in (untrained, trained):
        twin = float32_twin(model)
        for seed in range(3):
            idx = np.random.default_rng(seed).permutation(train_ds.n_windows)[:32]
            x, y = train_ds.inputs[idx], train_ds.targets[idx]
            model_step(twin, x.astype(np.float32), y.astype(np.float32))
            model_step(model, x, y)
            for prefix, layer in model.layers.items():
                twin_layer = twin.layers[prefix]
                for name in ("weight_grad", "bias_grad"):
                    want = getattr(layer, name)
                    error = np.linalg.norm(getattr(twin_layer, name) - want)
                    worst = max(worst, error / np.linalg.norm(want))
    assert 0.0 < worst <= 1e-4


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
def test_parameters_live_in_one_flat_vector(with_fecam):
    model = build_model(TrainConfig(lookback=16, horizon=8, seed=6), with_fecam=with_fecam)
    values, grads = model.values, model.grads
    assert values.ndim == 1 and grads.shape == values.shape
    for name, array in model.state_arrays().items():
        assert np.shares_memory(array, values), name
    layers = [model.projection] + ([model.fecam.excite1, model.fecam.excite2] if with_fecam else [])
    prefixes = ["projection"] + (["fecam.excite1", "fecam.excite2"] if with_fecam else [])
    assert list(model.layers) == prefixes
    assert all(a is b for a, b in zip(model.layers.values(), layers, strict=True))
    # The checkpoint names follow the table's order, weight before bias.
    assert list(model.state_arrays()) == [f"{p}.{n}" for p in prefixes for n in ("weight", "bias")]
    for layer in layers:
        assert np.shares_memory(layer.weight_grad, grads)
        assert np.shares_memory(layer.bias_grad, grads)
    # Packing happens after the draws, so the values are the unpacked layers'.
    drawn = [DenseLayer(16, 8, np.random.default_rng([6, 0]))]
    if with_fecam:
        block = Excitation(16, 2, np.random.default_rng([6, 1]))
        drawn += [block.excite1, block.excite2]
    expected = np.concatenate([p.ravel() for p, _ in param_pairs(*drawn)])
    assert values.tobytes() == expected.tobytes()
    grads[:] = 1.0
    model.zero_grad()
    assert not any(layer.weight_grad.any() or layer.bias_grad.any() for layer in layers)


def test_load_and_best_epoch_restore_write_through_the_flat_vector(tmp_path):
    train_ds, val_ds, _ = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=0.2, epochs=2, lr_decay=1.0,
                      early_stop_patience=2)
    model, history = train(build_model(cfg), train_ds, val_ds, cfg)
    best_val = min(row[2] for row in history)
    assert history[-1][2] > best_val  # the restore is what brings the best back
    assert evaluate(model, val_ds).mse == best_val
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded, _ = load_model(path)
    assert loaded.values.tobytes() == model.values.tobytes()
    for name, array in loaded.state_arrays().items():
        assert np.shares_memory(array, loaded.values), name
    assert evaluate(loaded, val_ds).mse == best_val


def test_adam_step_on_the_flat_vector_allocates_no_arrays():
    model = build_model(TrainConfig(lookback=96, horizon=96))
    values, grads = model.values, model.grads
    grads[:] = np.random.default_rng(8).normal(size=grads.shape)
    state = AdamState(learning_rate=1e-3)
    adam_step([values], [grads], state)  # allocates the moments and scratch
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adam_step([values], [grads], state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One temporary of the 18,624-element vector would be 145 KiB.
    assert peak - before < 1024


def test_persistence_report_matches_the_materialized_prediction(monkeypatch):
    # Scored INFERENCE_BATCH windows at a time, so its sums are chunked and
    # may differ from the one-shot formula in their last bits.
    _, _, test_ds = tiny_pipeline(channels=3)
    diff = np.repeat(test_ds.inputs[:, :, -1:], test_ds.horizon, axis=2) - test_ds.targets
    per_step = (diff * diff).sum(axis=(0, 1)) / (test_ds.n_windows * test_ds.channels)
    for batch_size in (7, 64):
        monkeypatch.setattr(forecaster, "INFERENCE_BATCH", batch_size)
        report = persistence_report(test_ds)
        assert report.mse == pytest.approx(float(np.mean(diff * diff)), rel=1e-12, abs=0)
        assert report.mae == pytest.approx(float(np.mean(np.abs(diff))), rel=1e-12, abs=0)
        np.testing.assert_allclose(report.step_mse, per_step, rtol=1e-12, atol=0)


def test_persistence_report_scores_through_evaluate_accumulation(monkeypatch):
    # A model that predicts the last input is scored bit for bit like the baseline.
    monkeypatch.setattr(forecaster, "INFERENCE_BATCH", 7)
    _, _, test_ds = tiny_pipeline(channels=3)
    model = build_model(TrainConfig(lookback=16, horizon=8), with_fecam=False)
    model.projection.weight[:] = 0.0
    model.projection.weight[-1, :] = 1.0
    model.projection.bias[:] = 0.0
    got, want = persistence_report(test_ds), evaluate(model, test_ds)
    assert (got.mse, got.mae) == (want.mse, want.mae)
    assert got.step_mse.tobytes() == want.step_mse.tobytes()


def test_persistence_baseline_scores():
    x = np.random.default_rng(7).normal(size=(5, 3, 4))
    flat_targets = np.repeat(x[:, :, -1:], 2, axis=2)
    ds = WindowedDataset(x, flat_targets)
    report = persistence_report(ds)
    assert report.mse == 0.0 and report.mae == 0.0
    ds_off = WindowedDataset(x, flat_targets + 2.0)
    assert persistence_report(ds_off).mse == pytest.approx(4.0)


def test_trained_model_beats_persistence_on_sinusoids():
    train_ds, val_ds, test_ds = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, lr=3e-3, epochs=10, lr_decay=1.0)
    model, _ = train(build_model(cfg), train_ds, val_ds, cfg)
    assert evaluate(model, test_ds).mse < persistence_report(test_ds).mse


# --- ablation -------------------------------------------------------------------------

def test_frozen_attention_equals_halved_projection():
    # Attention pinned at 0.5 composed with W is algebraically the plain
    # model with 0.5 * W; both scalings are exact in binary floating point.
    _, _, test_ds = tiny_pipeline()
    cfg = TrainConfig(lookback=16, horizon=8, seed=9)
    frozen = build_model(cfg, with_fecam=True)
    for value, _ in param_pairs(frozen.fecam.excite1, frozen.fecam.excite2):
        value[:] = 0.0
    halved = build_model(cfg, with_fecam=False)
    halved.projection.weight[:] = 0.5 * frozen.projection.weight
    report_frozen = evaluate(frozen, test_ds)
    report_halved = evaluate(halved, test_ds)
    assert report_frozen.mse == pytest.approx(report_halved.mse, abs=1e-12)
    assert report_frozen.mae == pytest.approx(report_halved.mae, abs=1e-12)


# --- checkpoints -----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    cfg = TrainConfig(lookback=16, horizon=8, seed=13)
    model = build_model(cfg)
    path = tmp_path / "model.json"
    save_model(path, model, meta={"dataset": "synthetic"})
    loaded, meta = load_model(path)
    assert meta == {"dataset": "synthetic"}
    x = np.random.default_rng(17).normal(size=(2, 3, 16))
    np.testing.assert_array_equal(model_forward(model, x), model_forward(loaded, x))


def test_state_array_names_are_pinned():
    # These names are the checkpoint format; renaming one breaks old model files.
    cfg = TrainConfig(lookback=16, horizon=8)
    shapes = {k: v.shape for k, v in build_model(cfg).state_arrays().items()}
    assert shapes == {
        "projection.weight": (16, 8), "projection.bias": (8,),
        "fecam.excite1.weight": (16, 8), "fecam.excite1.bias": (8,),
        "fecam.excite2.weight": (8, 16), "fecam.excite2.bias": (16,),
    }
    assert list(build_model(cfg, with_fecam=False).state_arrays()) == [
        "projection.weight", "projection.bias"]


def test_load_plain_model(tmp_path):
    model = ForecastModel(8, 4, with_fecam=False)
    path = tmp_path / "plain.json"
    save_model(path, model)
    loaded, meta = load_model(path)
    assert loaded.fecam is None and meta == {}


@pytest.mark.parametrize("with_fecam", [True, False], ids=["fecam", "plain"])
def test_checkpoint_with_the_older_structural_meta_loads_the_same_model(tmp_path, with_fecam):
    # Earlier files also carry lookback, horizon, reduction and with_fecam in
    # meta, always agreeing with the arrays; the loader reads only the arrays.
    from fecam.nncore import save_checkpoint
    model = ForecastModel(16, 8, reduction=4, with_fecam=with_fecam, seed=21)
    model.values += np.random.default_rng(22).normal(size=model.values.shape)
    meta = {"lookback": 16, "horizon": 8, "reduction": 4, "with_fecam": with_fecam,
            "dataset": "synth.csv"}
    path = tmp_path / "older.json"
    save_checkpoint(path, model.state_arrays(), meta)
    loaded, loaded_meta = load_model(path)
    assert loaded_meta == meta
    assert (loaded.fecam is None) is not with_fecam
    assert list(loaded.state_arrays()) == list(model.state_arrays())
    for name, array in model.state_arrays().items():
        assert loaded.state_arrays()[name].tobytes() == array.tobytes(), name
    x = np.random.default_rng(23).normal(size=(3, 2, 16))
    assert model_forward(loaded, x).tobytes() == model_forward(model, x).tobytes()


def test_load_rejects_incomplete_checkpoint(tmp_path):
    from fecam.nncore import save_checkpoint
    path = tmp_path / "bad.json"
    save_checkpoint(path, {"projection.weight": np.zeros((8, 4))})
    with pytest.raises(ValueError, match="projection.bias"):
        load_model(path)
    arrays = ForecastModel(8, 4).state_arrays()
    del arrays["fecam.excite2.weight"]
    save_checkpoint(path, arrays)
    with pytest.raises(ValueError, match="missing array 'fecam.excite2.weight'"):
        load_model(path)
