"""Minimal reverse-mode stack for small fixed networks.

Everything operates on plain ndarrays whose last axis is the feature axis;
leading axes (batch, channel) broadcast through untouched. A layer function
computes in float32 when given float32 and in float64 otherwise
(`float_array`), so a float32 copy of a network runs in float32 end to end;
Adam and checkpoints are float64 only. There is no tape: each operation
exposes an explicit forward and backward, and gradient buffers live on the
layers that own the parameters. Backward calls accumulate into those
buffers, so callers zero them at the start of every optimization step.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "fecam-checkpoint"
CHECKPOINT_VERSION = 2


def float_array(x) -> np.ndarray:
    """x as an ndarray: a float32 array stays float32, anything else becomes float64."""
    return np.asarray(x, dtype=np.float32 if getattr(x, "dtype", None) == np.float32
                      else np.float64)


class DenseLayer:
    """Affine map on the last axis: y[..., :] = x[..., :] @ weight + bias.

    Weights and bias start uniform in +-sqrt(1/in_dim) so that sigmoid outputs
    of a fresh network sit near 0.5. Gradients accumulate across backward
    calls until the caller zeroes weight_grad and bias_grad.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"layer dims must be positive, got ({in_dim}, {out_dim})")
        bound = np.sqrt(1.0 / in_dim)
        self.weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.bias = rng.uniform(-bound, bound, size=out_dim)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def dense_forward(layer: DenseLayer, x) -> np.ndarray:
    x = float_array(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"last axis is {x.shape[-1]}, layer expects {layer.in_dim}")
    # One (rows, in_dim) product rather than numpy's stacked matmul over the
    # leading axes; reshape copies only an input that is not contiguous.
    y = x.reshape(-1, layer.in_dim) @ layer.weight
    y += layer.bias
    return y.reshape(*x.shape[:-1], layer.out_dim)


def dense_backward(layer: DenseLayer, upstream, x, *, input_grad: bool = True) -> np.ndarray | None:
    """Accumulate parameter grads and return the gradient wrt x.

    `x` must be the exact forward input; the layer keeps no activation cache.
    With input_grad=False the same parameter grads accumulate and the input
    gradient's matmul is skipped; the return value is None.
    """
    upstream = float_array(upstream)
    x = float_array(x)
    if x.shape[-1] != layer.in_dim or upstream.shape[-1] != layer.out_dim:
        raise ValueError("upstream/x shapes do not match layer dims")
    if upstream.shape[:-1] != x.shape[:-1]:
        raise ValueError("upstream and x disagree on leading axes")
    flat_x = x.reshape(-1, layer.in_dim)
    flat_up = upstream.reshape(-1, layer.out_dim)
    layer.weight_grad += flat_x.T @ flat_up
    layer.bias_grad += flat_up.sum(axis=0)
    if not input_grad:
        return None
    return (flat_up @ layer.weight.T).reshape(*x.shape[:-1], layer.in_dim)


def relu_forward(x, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); pass `out=x` to overwrite a pre-activation nothing else needs.

    x > 0 exactly where the result is > 0 (NaN and -0.0 included), so
    relu_backward gives the same mask whether it sees the input or the output.
    """
    return np.maximum(float_array(x), 0.0, out=out)


def relu_backward(upstream, x, out: np.ndarray | None = None) -> np.ndarray:
    """upstream where x > 0, else 0; pass `out=upstream` to mask it in place."""
    # relu'(0) = 0: the strict inequality makes the choice explicit.
    return np.multiply(float_array(upstream), np.asarray(x) > 0.0, out=out)


def sigmoid_forward(x, bias=0.0, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of x + bias (a bias in x's dtype), without branches or masks.

    The first pass, (-bias) - x, is -(x + bias) up to a zero's sign, so the
    bias costs no pass and changes no bit. exp(-x) overflows to inf below
    about -709 (-88 in float32), and 1 / (1 + inf) is the correct limit 0, so
    that overflow is expected and silenced. Above it the result stays
    strictly positive, unlike 0.5 * (1 + tanh(x / 2)). Every step runs in one
    array: a fresh one, or `out`, which may be x itself.
    """
    x = float_array(x)
    y = np.subtract(-bias, x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    return np.divide(1.0, y, out=y)


def sigmoid_backward(upstream, y, out: np.ndarray | None = None) -> np.ndarray:
    """Backward through sigmoid given its forward *output* y; `out` may be upstream."""
    y = float_array(y)
    grad = np.multiply(float_array(upstream), y, out=out)
    grad *= 1.0 - y
    return grad


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over every element, with its gradient wrt pred.

    The loss is summed in float64 whatever the input's dtype; the gradient
    keeps the dtype of pred - target.
    """
    pred = float_array(pred)
    target = float_array(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("loss over an empty tensor is undefined")
    diff = pred - target
    loss = float(np.mean(diff * diff, dtype=np.float64))
    diff *= 2.0
    diff /= pred.size
    return loss, diff


# Adam's moment decay rates and denominator floor; only the learning rate varies.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Optimizer state; moment and scratch buffers are allocated lazily on the first step."""

    learning_rate: float = 1e-4
    step: int = field(default=0, init=False)
    first_moment: list[np.ndarray] = field(default_factory=list, init=False)
    second_moment: list[np.ndarray] = field(default_factory=list, init=False)
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update, applied to params in place.

    Each element goes through the same operations, in the same order, as
    p -= lr * (m / bias1) / (sqrt(v / bias2) + eps) with m and v updated by
    m = beta1*m + (1-beta1)*g and v = beta2*v + ((1-beta2)*g)*g. Every
    intermediate goes into the state's two scratch buffers per parameter, so
    a step allocates no arrays.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must pair up")
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
        state.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    if len(state.first_moment) != len(params):
        raise ValueError("optimizer state sized for a different parameter list")
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v, (a, b) in zip(params, grads, state.first_moment, state.second_moment,
                                  state.scratch, strict=True):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape or m.shape != p.shape:
            raise ValueError("parameter/gradient/state shape mismatch")
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, bias2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPSILON
        np.divide(m, bias1, out=b)
        np.multiply(state.learning_rate, b, out=b)
        p -= np.divide(b, a, out=b)


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays to a versioned JSON checkpoint, each as base64 float64 bytes."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": dict(meta or {}),
        "arrays": {
            name: {
                "shape": list(np.shape(a)),
                "data": base64.b64encode(
                    np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii"),
            }
            for name, a in arrays.items()
        },
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_checkpoint; returns (arrays, meta).

    Each array's `data` is one base64 string of its little-endian float64
    bytes, in C order. Every malformed part raises ValueError: a payload,
    `arrays` or `meta` that is not an object, an entry without a list `shape`
    of non-negative ints and a string `data`, data whose length does not
    match the shape (checked before decoding, so a huge shape allocates
    nothing), data that is not strict base64, and arrays holding NaN or
    infinity, naming the array. Version-1 files, which stored decimal
    lists, are refused. A file that is not UTF-8 JSON, or nests deeper than
    the parser's recursion limit, raises ValueError naming the file. The
    arrays returned are writable float64.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}: this fecam "
                         f"reads version {CHECKPOINT_VERSION}; re-run `fecam train` to write one")
    entries = payload.get("arrays")
    meta = payload.get("meta", {})
    if not isinstance(entries, dict) or not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint 'arrays' and 'meta' must be JSON objects")
    arrays = {}
    for name, entry in entries.items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                and isinstance(entry.get("data"), str)):
            raise ValueError(f"array {name!r}: need a list 'shape' of non-negative ints "
                             "and a base64 string 'data'")
        shape = tuple(shape)
        data, nbytes = entry["data"], 8 * math.prod(shape)
        # Padded base64 spends 4 characters on every 3 bytes or part of 3.
        if len(data) != (nbytes + 2) // 3 * 4:
            raise ValueError(f"array {name!r}: data length does not match shape {shape}")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:  # binascii.Error
            raise ValueError(f"array {name!r}: data is not valid base64: {exc}") from None
        if len(raw) != nbytes:
            raise ValueError(f"array {name!r}: data length does not match shape {shape}")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"array {name!r} contains non-finite values")
        arrays[name] = values.reshape(shape)
    return arrays, meta
