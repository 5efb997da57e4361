"""Frequency enhanced channel attention.

The layer maps each channel of a (batch, channel, length) tensor into the
frequency domain with an orthonormal cosine transform, runs the stacked
frequency map through a shared bottleneck (length -> length/reduction ->
length) with ReLU inside and sigmoid outside, and rescales the original
time-domain input elementwise by the resulting attention weights. No inverse
transform is involved: attention modulates the signal, not its spectrum.

A classic squeeze-and-excite block over channel means is included as the
baseline this construction generalizes: the mean a channel is squeezed to is,
up to a fixed scale, the lowest cosine coefficient of that channel. Both use
the same Excitation block; the function called (fecam_* or se_*) decides the
squeeze and the axis the block acts on.
"""

from __future__ import annotations

import numpy as np

from .data import write_csv
from .nncore import (
    DenseLayer,
    dense_backward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .spectral import ORTHO, dct_matrix


def _check_tensor3(x, name: str = "x") -> np.ndarray:
    """x as a C-contiguous float64 (batch, channels, length) array.

    Batches gathered from sliding-window views are strided along the length
    axis; one copy here makes every later reshape to (batch*channels, length)
    a view and every elementwise pass run over contiguous memory.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (batch, channels, length), got {arr.shape}")
    return np.ascontiguousarray(arr)


def _check_input(x, block: Excitation, axis: int) -> np.ndarray:
    x = _check_tensor3(x)
    if x.shape[axis] != block.size:
        raise ValueError(f"x has size {x.shape[axis]} on axis {axis}, block expects {block.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    return x


class Excitation:
    """Bottleneck excitation: size -> size/reduction -> size, ReLU then sigmoid.

    For FECAM `size` is the sequence length and the two dense layers act on
    the frequency axis, shared across channels, so every channel gets its own
    length-L attention vector from the same weights. For the SE baseline
    `size` is the channel count and the block maps channel means to one
    weight per channel.
    """

    def __init__(self, size: int, reduction: int = 2, rng: np.random.Generator | None = None):
        if size < 1 or reduction < 1:
            raise ValueError(f"size and reduction must be positive, got ({size}, {reduction})")
        if size % reduction != 0:
            raise ValueError(f"size {size} not divisible by reduction {reduction}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.size = size
        hidden = size // reduction
        self.excite1 = DenseLayer(size, hidden, rng)
        self.excite2 = DenseLayer(hidden, size, rng)

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


def _excite(z1: np.ndarray, block: Excitation) -> tuple[np.ndarray, np.ndarray]:
    """The shared middle after the first dense layer; returns (h1, att).

    The ReLU overwrites z1, which must be a fresh array nothing else holds.
    """
    h1 = relu_forward(z1, out=z1)
    z2 = h1 @ block.excite2.weight
    z2 += block.excite2.bias
    return h1, sigmoid_forward(z2)


def _excite_backward(d_att, block: Excitation, h1, att) -> np.ndarray:
    """Reverse of _excite; accumulates excite2's grads and returns d_z1."""
    d_h1 = dense_backward(block.excite2, sigmoid_backward(d_att, att), h1)
    return relu_backward(d_h1, h1)


def gap(x) -> np.ndarray:
    """Per-channel temporal mean: (B, C, L) -> (B, C)."""
    return _check_tensor3(x).mean(axis=2)


def se_attention(x, block: Excitation, cache: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Channel attention from squeezed means; returns (weights (B, C), rescaled x)."""
    x = _check_input(x, block, 1)
    squeezed = gap(x)
    z1 = squeezed @ block.excite1.weight
    z1 += block.excite1.bias
    h1, att = _excite(z1, block)
    out = x * att[:, :, None]
    if cache is not None:
        cache.update(x=x, squeezed=squeezed, h1=h1, att=att)
    return att, out


def se_attention_backward(upstream, block: Excitation, cache: dict) -> np.ndarray:
    """Reverse of se_attention; accumulates into the block's grad buffers."""
    if not cache:
        raise ValueError("se_attention_backward needs the cache filled by se_attention")
    upstream = np.asarray(upstream, dtype=np.float64)
    x, att = cache["x"], cache["att"]
    d_x = upstream * att[:, :, None]
    d_z1 = _excite_backward((upstream * x).sum(axis=2), block, cache["h1"], att)
    d_squeezed = dense_backward(block.excite1, d_z1, cache["squeezed"])
    d_x += d_squeezed[:, :, None] / x.shape[2]
    return d_x


def frequency_map(x, block: Excitation) -> np.ndarray:
    """Orthonormal cosine spectrum of every channel, stacked to (B, C, L).

    Each channel is transformed independently with the cached basis, one
    matrix-vector product per (batch, channel) row. This is the readable
    form of the squeeze; fecam_forward and fecam_backward do not call it, they
    apply the same basis folded into the first excitation weight.
    """
    x = _check_input(x, block, 2)
    dct = dct_matrix(block.size, ORTHO)
    out = np.empty_like(x)
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            out[b, c] = dct @ x[b, c]
    return out


def fecam_forward(x, block: Excitation, cache: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Apply frequency attention; returns (rescaled x, attention map).

    The cosine transform is linear and fixed, so the first excitation layer
    applied to the spectrum, (x D^T) W1, is computed as x (D^T W1): one
    matmul over all (batch, channel) rows. The folded weight is rebuilt on
    every call because optimizers and the gradient checker edit W1 in place.

    Attention entries are sigmoid outputs, so the rescale never amplifies:
    |out| <= |x| elementwise. Pass a dict as `cache` to retain the
    activations fecam_backward needs.
    """
    x = _check_input(x, block, 2)
    folded = dct_matrix(block.size, ORTHO).T @ block.excite1.weight
    z1 = x.reshape(-1, block.size) @ folded
    z1 += block.excite1.bias
    h1, att = _excite(z1, block)
    att = att.reshape(x.shape)
    out = x * att
    if cache is not None:
        cache.update(x=x, folded=folded, h1=h1, att=att)
    return out, att


def fecam_backward(upstream, block: Excitation, cache: dict) -> np.ndarray:
    """Gradient of fecam_forward's output wrt its input and parameters.

    Parameter gradients accumulate into the block's buffers. With the rows of
    x flattened to (B*C, L), the first weight's gradient is D (x^T dz1) and
    the input gradient flows back through the folded weight D^T W1.
    """
    if not cache:
        raise ValueError("fecam_backward needs the cache filled by fecam_forward")
    upstream = np.asarray(upstream, dtype=np.float64)
    x, att = cache["x"], cache["att"]
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {x.shape}")
    rows = x.reshape(-1, block.size)
    d_z1 = _excite_backward((upstream * x).reshape(rows.shape), block, cache["h1"],
                            att.reshape(rows.shape))
    block.excite1.weight_grad += dct_matrix(block.size, ORTHO) @ (rows.T @ d_z1)
    block.excite1.bias_grad += d_z1.sum(axis=0)
    d_x = (d_z1 @ cache["folded"].T).reshape(x.shape)
    d_x += upstream * att
    return d_x


def export_attention(mean_att, path) -> np.ndarray:
    """Write a window-averaged (C, L) attention map as a frequency-by-channel CSV.

    Rows run from the lowest frequency index to the highest; one column per
    channel. Returns the (L, C) matrix that was written.
    """
    mean_att = np.asarray(mean_att, dtype=np.float64)
    if mean_att.ndim != 2:
        raise ValueError(f"mean_att must have shape (channels, length), got {mean_att.shape}")
    heatmap = mean_att.T
    write_csv(path, [f"channel_{c}" for c in range(heatmap.shape[1])], heatmap)
    return heatmap
