"""Frequency enhanced channel attention.

The layer maps each channel of a (batch, channel, length) tensor into the
frequency domain with an orthonormal cosine transform, runs the stacked
frequency map through a shared bottleneck (length -> length/reduction ->
length) with ReLU inside and sigmoid outside, and rescales the original
time-domain input elementwise by the resulting attention weights. No inverse
transform is involved: attention modulates the signal, not its spectrum.

A classic squeeze-and-excite block over channel means is included as the
baseline this construction generalizes: the mean a channel is squeezed to is,
up to a fixed scale, the lowest cosine coefficient of that channel.
"""

from __future__ import annotations

import numpy as np

from .nncore import (
    DenseLayer,
    dense_backward,
    dense_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .spectral import ORTHO, dct_matrix


def _check_tensor3(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (batch, channels, length), got {arr.shape}")
    return arr


def _check_fecam_input(x, layer: FecamLayer) -> np.ndarray:
    x = _check_tensor3(x)
    if x.shape[2] != layer.seq_len:
        raise ValueError(f"x length {x.shape[2]} != layer seq_len {layer.seq_len}")
    return x


class FecamLayer:
    """Bottleneck excitation over per-channel cosine spectra.

    The two dense layers act on the frequency axis and are shared across
    channels, so every channel gets its own length-L attention vector from
    the same weights.
    """

    def __init__(self, seq_len: int, reduction: int = 2, rng: np.random.Generator | None = None):
        if seq_len < 1 or reduction < 1:
            raise ValueError(f"seq_len and reduction must be positive, got ({seq_len}, {reduction})")
        if seq_len % reduction != 0:
            raise ValueError(f"seq_len {seq_len} not divisible by reduction {reduction}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.seq_len = seq_len
        self.reduction = reduction
        hidden = seq_len // reduction
        self.excite1 = DenseLayer(seq_len, hidden, rng)
        self.excite2 = DenseLayer(hidden, seq_len, rng)
        self.dct = dct_matrix(seq_len, ORTHO)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.excite1.parameters() + self.excite2.parameters()

    def zero_grad(self) -> None:
        self.excite1.zero_grad()
        self.excite2.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "excite1.weight": self.excite1.weight,
            "excite1.bias": self.excite1.bias,
            "excite2.weight": self.excite2.weight,
            "excite2.bias": self.excite2.bias,
        }

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, target in self.state_arrays().items():
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != target.shape:
                raise ValueError(f"{name}: checkpoint shape {value.shape} != layer shape {target.shape}")
            target[:] = value


class SeBaseline:
    """Squeeze-and-excite over channel means: C -> C/r -> C, one weight per channel."""

    def __init__(self, channels: int, reduction: int = 2, rng: np.random.Generator | None = None):
        if channels < 1 or reduction < 1:
            raise ValueError(f"channels and reduction must be positive, got ({channels}, {reduction})")
        if channels % reduction != 0:
            raise ValueError(f"channels {channels} not divisible by reduction {reduction}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.channels = channels
        hidden = channels // reduction
        self.excite1 = DenseLayer(channels, hidden, rng)
        self.excite2 = DenseLayer(hidden, channels, rng)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.excite1.parameters() + self.excite2.parameters()

    def zero_grad(self) -> None:
        self.excite1.zero_grad()
        self.excite2.zero_grad()


def gap(x) -> np.ndarray:
    """Per-channel temporal mean: (B, C, L) -> (B, C)."""
    return _check_tensor3(x).mean(axis=2)


def se_attention(x, se: SeBaseline, cache: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Channel attention from squeezed means; returns (weights (B, C), rescaled x)."""
    x = _check_tensor3(x)
    if x.shape[1] != se.channels:
        raise ValueError(f"x has {x.shape[1]} channels, block expects {se.channels}")
    squeezed = gap(x)
    z1 = dense_forward(se.excite1, squeezed)
    h1 = relu_forward(z1)
    z2 = dense_forward(se.excite2, h1)
    att = sigmoid_forward(z2)
    out = x * att[:, :, None]
    if cache is not None:
        cache.update(x=x, squeezed=squeezed, z1=z1, h1=h1, att=att)
    return att, out


def se_attention_backward(upstream, se: SeBaseline, cache: dict) -> np.ndarray:
    """Reverse of se_attention; accumulates into the block's grad buffers."""
    if not cache:
        raise ValueError("se_attention_backward needs the cache filled by se_attention")
    upstream = np.asarray(upstream, dtype=np.float64)
    x, att = cache["x"], cache["att"]
    d_x = upstream * att[:, :, None]
    d_att = (upstream * x).sum(axis=2)
    d_z2 = sigmoid_backward(d_att, att)
    d_h1 = dense_backward(se.excite2, d_z2, cache["h1"])
    d_z1 = relu_backward(d_h1, cache["z1"])
    d_squeezed = dense_backward(se.excite1, d_z1, cache["squeezed"])
    d_x += d_squeezed[:, :, None] / x.shape[2]
    return d_x


def frequency_map(x, layer: FecamLayer) -> np.ndarray:
    """Orthonormal cosine spectrum of every channel, stacked to (B, C, L).

    Each channel is transformed independently with the layer's cached basis,
    one matrix-vector product per (batch, channel) row. This is the readable
    form of the squeeze; fecam_forward and fecam_backward do not call it, they
    apply the same basis folded into the first excitation weight.
    """
    x = _check_fecam_input(x, layer)
    out = np.empty_like(x)
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            out[b, c] = layer.dct @ x[b, c]
    return out


def fecam_forward(x, layer: FecamLayer, cache: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Apply frequency attention; returns (rescaled x, attention map).

    The cosine transform is linear and fixed, so the first excitation layer
    applied to the spectrum, (x D^T) W1, is computed as x (D^T W1): one
    matmul over all (batch, channel) rows. The folded weight is rebuilt on
    every call because optimizers and the gradient checker edit W1 in place.

    Attention entries are sigmoid outputs, so the rescale never amplifies:
    |out| <= |x| elementwise. Pass a dict as `cache` to retain the
    activations fecam_backward needs.
    """
    x = _check_fecam_input(x, layer)
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    folded = layer.dct.T @ layer.excite1.weight
    rows = x.reshape(-1, layer.seq_len)
    z1 = rows @ folded + layer.excite1.bias
    h1 = relu_forward(z1)
    att = sigmoid_forward(h1 @ layer.excite2.weight + layer.excite2.bias).reshape(x.shape)
    out = x * att
    if cache is not None:
        cache.update(x=x, folded=folded, z1=z1, h1=h1, att=att)
    return out, att


def fecam_backward(upstream, layer: FecamLayer, cache: dict) -> np.ndarray:
    """Gradient of fecam_forward's output wrt its input and parameters.

    Parameter gradients accumulate into the layer's buffers. With the rows of
    x flattened to (B*C, L), the first weight's gradient is D (x^T dz1) and
    the input gradient flows back through the folded weight D^T W1.
    """
    if not cache:
        raise ValueError("fecam_backward needs the cache filled by fecam_forward")
    upstream = np.asarray(upstream, dtype=np.float64)
    x, att = cache["x"], cache["att"]
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {x.shape}")
    rows = x.reshape(-1, layer.seq_len)
    d_z2 = sigmoid_backward(upstream * x, att).reshape(rows.shape)
    d_h1 = dense_backward(layer.excite2, d_z2, cache["h1"])
    d_z1 = relu_backward(d_h1, cache["z1"])
    layer.excite1.weight_grad += layer.dct @ (rows.T @ d_z1)
    layer.excite1.bias_grad += d_z1.sum(axis=0)
    d_x = (d_z1 @ cache["folded"].T).reshape(x.shape)
    d_x += upstream * att
    return d_x


def export_attention(att, path) -> np.ndarray:
    """Write the batch-averaged attention map as a frequency-by-channel CSV.

    Rows run from the lowest frequency index to the highest; one column per
    channel. Returns the averaged (L, C) matrix that was written.
    """
    att = _check_tensor3(att, "att")
    heatmap = att.mean(axis=0).T  # (L, C)
    channels = heatmap.shape[1]
    lines = [",".join(f"channel_{c}" for c in range(channels))]
    for row in heatmap:
        lines.append(",".join(f"{v:.9g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return heatmap
