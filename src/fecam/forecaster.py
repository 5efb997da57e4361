"""Standalone forecaster: frequency attention feeding one shared projection.

The model is deliberately small — an optional attention layer followed by a
single lookback-to-horizon dense map whose weights are shared by every
channel. Training is plain mini-batch Adam with seeded shuffling, per-epoch
learning-rate decay, and early stopping on validation MSE, each step computed
in float32 against float64 weights; the best validation weights are restored
at the end. A persistence baseline (repeat the last observed value) anchors
every comparison. Models built from one config with and without the
attention layer start from the same projection weights, so the two can be
trained as matched ablation arms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import INFERENCE_BATCH, Excitation, fecam_backward, fecam_forward
from .data import WindowedDataset
from .nncore import (
    AdamState,
    DenseLayer,
    adam_step,
    dense_backward,
    dense_forward,
    float_array,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
)


# A dense layer's parameters, in packing and checkpoint order.
_PARAMETER_NAMES = ("weight", "bias")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    lookback: int = 96
    horizon: int = 96
    reduction: int = 2
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    early_stop_patience: int = 3
    lr_decay: float = 0.5

    def __post_init__(self):
        for name in ("lr", "lr_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        positive = {
            "lookback": self.lookback, "horizon": self.horizon,
            "reduction": self.reduction, "batch_size": self.batch_size,
            "epochs": self.epochs, "early_stop_patience": self.early_stop_patience,
            "lr_decay": self.lr_decay,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # lr = 0 is allowed: it turns training into a no-op, useful as a control.
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.lookback % self.reduction != 0:
            raise ValueError(
                f"lookback {self.lookback} not divisible by reduction {self.reduction}")


@dataclass
class EvalReport:
    """Metrics on the standardized scale, plus the per-step error profile."""

    mse: float
    mae: float
    step_mse: np.ndarray


class ForecastModel:
    """Optional frequency attention composed with a shared L -> O projection.

    The seed feeds two independent generator streams, so the projection's
    initialization is identical whether or not the attention layer exists —
    ablation arms start from the same projection weights.

    `layers` is the one table of the model's dense layers: checkpoint prefix
    to layer, in the order projection, then fecam.excite1 and fecam.excite2.
    Once drawn, every weight and bias moves into one flat `values` vector,
    with a matching `grads` vector, in that order, weight before bias; the
    layers' arrays become views into them. The optimizer, zero_grad and
    best-epoch snapshots each handle one array, and the checkpoint names
    each array f"{prefix}.weight" or f"{prefix}.bias".
    `dtype` is that of `values` and `grads`: float64, or float32 for the copy
    whose steps `train` runs.
    """

    def __init__(self, lookback: int, horizon: int, reduction: int = 2,
                 with_fecam: bool = True, seed: int = 0, dtype=np.float64):
        self.lookback = lookback
        self.horizon = horizon
        self.reduction = reduction
        self.projection = DenseLayer(lookback, horizon, np.random.default_rng([seed, 0]))
        self.fecam = (Excitation(lookback, reduction, np.random.default_rng([seed, 1]))
                      if with_fecam else None)
        self.layers = {"projection": self.projection}
        if self.fecam is not None:
            self.layers.update({"fecam.excite1": self.fecam.excite1,
                                "fecam.excite2": self.fecam.excite2})
        self.values = np.concatenate([a.ravel() for a in self.state_arrays().values()],
                                     dtype=dtype)
        self.grads = np.zeros_like(self.values)
        offset = 0
        for layer in self.layers.values():
            for name in _PARAMETER_NAMES:
                shape = getattr(layer, name).shape
                stop = offset + math.prod(shape)
                setattr(layer, name, self.values[offset:stop].reshape(shape))
                setattr(layer, f"{name}_grad", self.grads[offset:stop].reshape(shape))
                offset = stop

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The single (values, grads) pair every layer's parameters live in."""
        return [(self.values, self.grads)]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Checkpoint name -> parameter array, in the order of `values`."""
        return {f"{prefix}.{name}": getattr(layer, name)
                for prefix, layer in self.layers.items() for name in _PARAMETER_NAMES}


def build_model(config: TrainConfig, with_fecam: bool = True) -> ForecastModel:
    return ForecastModel(config.lookback, config.horizon, config.reduction,
                         with_fecam=with_fecam, seed=config.seed)


def model_forward(model: ForecastModel, x, cache: dict | None = None) -> np.ndarray:
    """(B, C, L) -> (B, C, O); pass a dict to retain activations for backward."""
    x = float_array(x)
    if x.ndim != 3 or x.shape[2] != model.lookback:
        raise ValueError(f"expected (B, C, {model.lookback}) input, got {x.shape}")
    feat = x if model.fecam is None else fecam_forward(x, model.fecam, cache)[0]
    if cache is not None:
        cache["proj_in"] = feat
    return dense_forward(model.projection, feat)


def model_backward(model: ForecastModel, upstream, cache: dict) -> None:
    """Accumulate parameter grads from a forward cache; dL/dx is not formed."""
    if not cache:
        raise ValueError("model_backward needs the cache filled by model_forward")
    d_feat = dense_backward(model.projection, upstream, cache["proj_in"],
                            input_grad=model.fecam is not None)
    if model.fecam is not None:
        fecam_backward(d_feat, model.fecam, cache, input_grad=False)


def _check_windows(ds: WindowedDataset, name: str) -> None:
    """At least one window, and one target window per input window and channel."""
    if ds.n_windows < 1:
        raise ValueError(f"{name} dataset is empty")
    if ds.targets.shape[:2] != ds.inputs.shape[:2]:
        raise ValueError(f"{name} dataset has (windows, channels) {ds.inputs.shape[:2]} in its "
                         f"inputs but {ds.targets.shape[:2]} in its targets")


def _check_dataset(ds: WindowedDataset, model: ForecastModel, name: str) -> None:
    _check_windows(ds, name)
    if ds.lookback != model.lookback or ds.horizon != model.horizon:
        raise ValueError(
            f"{name} dataset windows ({ds.lookback}, {ds.horizon}) do not match "
            f"model ({model.lookback}, {model.horizon})")


def train(model: ForecastModel, train_ds: WindowedDataset, val_ds: WindowedDataset,
          config: TrainConfig) -> tuple[ForecastModel, list[tuple[int, float, float]]]:
    """Mini-batch Adam with early stopping; returns (model, per-epoch history).

    Each batch's forward, loss and backward run in float32, on a float32 copy
    of the model that takes the weights before the step; its gradients feed
    Adam, which updates the float64 weights of `model`. Validation, the best
    epoch's weights and anything scored afterwards stay float64. History
    rows are (epoch, train_loss, val_loss), each loss summed in float64. The
    model keeps the weights of its best validation epoch, not necessarily the
    last one. Raises DivergenceError the moment any batch loss turns
    non-finite or any step or validation pass overflows, a weight too large
    for float32 included.
    """
    _check_dataset(train_ds, model, "train")
    _check_dataset(val_ds, model, "val")
    state = AdamState(learning_rate=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 2])
    history: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_values = model.values.copy()
    stale_epochs = 0
    twin = ForecastModel(model.lookback, model.horizon, model.reduction,
                         with_fecam=model.fecam is not None, dtype=np.float32)

    # Data and initial weights are finite, so an overflow or invalid operation
    # anywhere in a step or in validation means the weights have diverged.
    # numpy raises it where it happens rather than passing inf or NaN on to a
    # later input check; sigmoid's expected exp overflow stays silenced inside it.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                order = shuffle_rng.permutation(train_ds.n_windows)
                sq_sum = 0.0
                for start in range(0, train_ds.n_windows, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    np.copyto(twin.values, model.values)
                    twin.zero_grad()
                    cache = {}
                    pred = model_forward(twin, train_ds.inputs[idx].astype(np.float32), cache)
                    loss, d_loss = mse_loss(pred, train_ds.targets[idx].astype(np.float32))
                    if not np.isfinite(loss):
                        raise DivergenceError(
                            f"non-finite loss at epoch {epoch}, batch starting at {start}; "
                            f"try a lower learning rate (current {state.learning_rate:g})")
                    model_backward(twin, d_loss, cache)
                    np.copyto(model.grads, twin.grads)
                    adam_step([model.values], [model.grads], state)
                    sq_sum += loss * pred.size
                val_mse = evaluate(model, val_ds).mse
                history.append((epoch, sq_sum / train_ds.targets.size, val_mse))
                if val_mse < best_val:
                    best_val = val_mse
                    np.copyto(best_values, model.values)
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= config.early_stop_patience:
                        break
                state.learning_rate *= config.lr_decay
    except FloatingPointError as exc:
        raise DivergenceError(
            f"{exc} at epoch {epoch}; try a lower learning rate "
            f"(current {state.learning_rate:g})") from None

    np.copyto(model.values, best_values)
    return model, history


def _score(ds: WindowedDataset, predict) -> EvalReport:
    """MSE/MAE of predict(inputs) against the targets, INFERENCE_BATCH windows at a time.

    Memory is one batch's temporaries, not N×C×O arrays for N windows. The
    error is formed in C order, so its sums run row-major whatever the
    strides of the window views or of a broadcast prediction. Plain sums
    accumulate across batches, so the result does not depend on the batch
    size beyond rounding.
    """
    sq_sum = 0.0
    abs_sum = 0.0
    step_sq = np.zeros(ds.horizon)
    for start in range(0, ds.n_windows, INFERENCE_BATCH):
        stop = start + INFERENCE_BATCH
        diff = np.subtract(predict(ds.inputs[start:stop]), ds.targets[start:stop], order="C")
        sq = diff * diff
        sq_sum += float(sq.sum())
        abs_sum += float(np.abs(diff).sum())
        step_sq += sq.sum(axis=(0, 1))
    per_step = step_sq / (ds.n_windows * ds.channels)
    return EvalReport(mse=sq_sum / ds.targets.size, mae=abs_sum / ds.targets.size,
                      step_mse=per_step)


def evaluate(model: ForecastModel, ds: WindowedDataset) -> EvalReport:
    """MSE/MAE over every (window, channel, step) element of the dataset."""
    _check_dataset(ds, model, "eval")
    return _score(ds, functools.partial(model_forward, model))


def persistence_report(ds: WindowedDataset) -> EvalReport:
    """Score the repeat-last-value baseline on the same metrics.

    The last input of each window broadcasts over the horizon.
    """
    _check_windows(ds, "persistence")
    return _score(ds, lambda inputs: inputs[:, :, -1:])


def save_model(path, model: ForecastModel, meta: dict | None = None) -> None:
    """Write the model's arrays and the caller's meta; every size lives in the arrays."""
    save_checkpoint(path, model.state_arrays(), meta)


def _array(arrays: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in arrays:
        raise ValueError(f"checkpoint missing array {name!r}")
    return arrays[name]


def load_model(path) -> tuple[ForecastModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, meta), meta unchecked for the caller.

    Sizes come from arrays the file holds, checked before any weight is drawn,
    so they bound every allocation: L and O from projection.weight (L x O), the
    attention layer from any fecam.* array, r from fecam.excite1.weight (L x L/r).
    """
    arrays, meta = load_checkpoint(path)
    shape = _array(arrays, "projection.weight").shape
    if len(shape) != 2:
        raise ValueError(f"projection.weight: checkpoint shape {shape} is not (lookback, horizon)")
    lookback, horizon = shape
    with_fecam = any(name.startswith("fecam.") for name in arrays)
    reduction = 1
    if with_fecam:
        shape = _array(arrays, "fecam.excite1.weight").shape
        if len(shape) != 2 or shape[0] != lookback or shape[1] == 0 or lookback % shape[1]:
            raise ValueError(f"fecam.excite1.weight: checkpoint shape {shape} is not "
                             f"(lookback {lookback}, a divisor of {lookback})")
        reduction = lookback // shape[1]
    model = ForecastModel(lookback, horizon, reduction, with_fecam=with_fecam)
    for name, target in model.state_arrays().items():
        if _array(arrays, name).shape != target.shape:
            raise ValueError(
                f"{name}: checkpoint shape {arrays[name].shape} != model shape {target.shape}")
        target[:] = arrays[name]
    return model, meta
