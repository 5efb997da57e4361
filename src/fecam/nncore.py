"""Minimal reverse-mode stack for small fixed networks.

Everything operates on plain float64 ndarrays whose last axis is the feature
axis; leading axes (batch, channel) broadcast through untouched. There is no
tape: each operation exposes an explicit forward and backward, and gradient
buffers live on the layers that own the parameters. Backward calls accumulate
into those buffers, so callers zero them at the start of every optimization
step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "fecam-checkpoint"
CHECKPOINT_VERSION = 1


def _as_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


class DenseLayer:
    """Affine map on the last axis: y[..., :] = x[..., :] @ weight + bias.

    Weights and bias start uniform in +-sqrt(1/in_dim) so that sigmoid outputs
    of a fresh network sit near 0.5. Gradients accumulate across backward
    calls until zero_grad.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"layer dims must be positive, got ({in_dim}, {out_dim})")
        if rng is None:
            rng = np.random.default_rng(0)
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

    def zero_grad(self) -> None:
        self.weight_grad[:] = 0.0
        self.bias_grad[:] = 0.0

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(value, grad) pairs, in a stable order."""
        return [(self.weight, self.weight_grad), (self.bias, self.bias_grad)]


def dense_forward(layer: DenseLayer, x) -> np.ndarray:
    x = _as_array(x, "x")
    if x.shape[-1] != layer.in_dim:
        raise ValueError(
            f"last axis is {x.shape[-1]}, layer expects {layer.in_dim}")
    return x @ layer.weight + layer.bias


def dense_backward(layer: DenseLayer, upstream, x) -> np.ndarray:
    """Accumulate parameter grads and return the gradient wrt x.

    `x` must be the exact forward input; the layer keeps no activation cache.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim or upstream.shape[-1] != layer.out_dim:
        raise ValueError("upstream/x shapes do not match layer dims")
    if upstream.shape[:-1] != x.shape[:-1]:
        raise ValueError("upstream and x disagree on leading axes")
    flat_x = x.reshape(-1, layer.in_dim)
    flat_up = upstream.reshape(-1, layer.out_dim)
    layer.weight_grad += flat_x.T @ flat_up
    layer.bias_grad += flat_up.sum(axis=0)
    return upstream @ layer.weight.T


def relu_forward(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(upstream, x) -> np.ndarray:
    # relu'(0) = 0: the strict inequality makes the choice explicit.
    return np.asarray(upstream, dtype=np.float64) * (np.asarray(x) > 0.0)


def sigmoid_forward(x) -> np.ndarray:
    """Logistic function without branches or masks.

    exp(-x) overflows to inf for x below about -709, and 1 / (1 + inf) is the
    correct limit 0, so that overflow is expected and silenced. Above it the
    result stays strictly positive, unlike 0.5 * (1 + tanh(x / 2)).
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid_backward(upstream, y) -> np.ndarray:
    """Backward through sigmoid given its forward *output* y."""
    y = np.asarray(y, dtype=np.float64)
    return np.asarray(upstream, dtype=np.float64) * y * (1.0 - y)


def elementwise_mul_forward(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def elementwise_mul_backward(upstream, a, b) -> tuple[np.ndarray, np.ndarray]:
    upstream = np.asarray(upstream, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (upstream.shape == a.shape == b.shape):
        raise ValueError("upstream/a/b shapes must all match")
    return upstream * b, upstream * a


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over every element, with its gradient wrt pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("loss over an empty tensor is undefined")
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / pred.size


@dataclass
class AdamState:
    """Optimizer state; moment buffers are allocated lazily on the first step."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> list[np.ndarray]:
    """Bias-corrected Adam update, applied to params in place."""
    if len(params) != len(grads):
        raise ValueError("params and grads must pair up")
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
    if len(state.first_moment) != len(params):
        raise ValueError("optimizer state sized for a different parameter list")
    state.step += 1
    bias1 = 1.0 - state.beta1 ** state.step
    bias2 = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape or m.shape != p.shape:
            raise ValueError("parameter/gradient/state shape mismatch")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
    return params


def grad_check(f, params: list[np.ndarray], step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    `f` evaluates the scalar objective from the *current* values of `params`
    and returns (loss, grads) with one gradient array per parameter array.
    Each coordinate of each parameter is perturbed in place by +-step and the
    numeric slope is compared against the analytic one; the return value is
    the worst relative error, with denominator max(|analytic|, |numeric|,
    1e-8).
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step {step} outside [1e-7, 1e-3]")
    _, analytic = f()
    analytic = [np.array(g, dtype=np.float64, copy=True) for g in analytic]
    if len(analytic) != len(params):
        raise ValueError("f returned a gradient list of the wrong length")
    worst = 0.0
    for p, g in zip(params, analytic):
        if g.shape != p.shape:
            raise ValueError("gradient/parameter shape mismatch")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + step
            plus, _ = f()
            flat_p[i] = saved - step
            minus, _ = f()
            flat_p[i] = saved
            numeric = (plus - minus) / (2.0 * step)
            denom = max(abs(flat_g[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_g[i] - numeric) / denom)
    return worst


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays to a versioned JSON checkpoint."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": dict(meta or {}),
        "arrays": {
            name: {
                "shape": list(np.asarray(a).shape),
                "data": np.asarray(a, dtype=np.float64).ravel().tolist(),
            }
            for name, a in arrays.items()
        },
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_checkpoint; returns (arrays, meta)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    arrays = {}
    for name, entry in payload["arrays"].items():
        shape = tuple(entry["shape"])
        data = np.asarray(entry["data"], dtype=np.float64)
        if data.size != int(np.prod(shape, dtype=np.int64)):
            raise ValueError(f"array {name!r}: data length does not match shape {shape}")
        arrays[name] = data.reshape(shape)
    return arrays, payload.get("meta", {})
