"""Frequency enhanced channel attention.

The layer maps each channel of a (batch, channel, length) tensor into the
frequency domain with an orthonormal cosine transform, runs the stacked
frequency map through a shared bottleneck (length -> length/reduction ->
length) with ReLU inside and sigmoid outside, and rescales the original
time-domain input elementwise by the resulting attention weights. No inverse
transform is involved: attention modulates the signal, not its spectrum.

A squeeze-and-excite channel mean is, up to a fixed scale, the lowest cosine
coefficient of the spectrum squeezed here; `fecam theorems` checks that
identity as `gap_link`.
"""

from __future__ import annotations

import numpy as np

from .data import write_csv
from .nncore import (
    DenseLayer,
    dense_backward,
    float_array,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .spectral import ORTHO, dct_matrix

# Windows per inference batch, for `fecam attention`, evaluate and the
# persistence baseline. Chunks bound inference memory to one batch's
# temporaries: scoring the persistence baseline in chunks rather than whole
# took the benchmark's train_c7_l96 peak RSS (`fecam train`, 4,000x7 rows,
# L=O=96) from 61.3 to 56.1 MiB. Range of two runs' medians over seven
# interleaved rounds, on windows built from the benchmark's CSVs, at C=7,
# L=O=96 (2 vCPUs, one OpenBLAS thread):
#   batch                          32       64       128      256
#   evaluate, 536 windows (ms)   6.0-6.3  6.1-6.9  7.2-7.8  12-16
#   attention, 2,976 windows     15-17    16-18    16-17    19-26
INFERENCE_BATCH = 64


def _check_input(x, block: Excitation) -> np.ndarray:
    """x as a finite, C-contiguous (batch, channels, block.size) array.

    float32 stays float32, so a float32 block computes in float32; any other
    input becomes float64.

    A batch gathered by index from the windows of a channel-major series is
    already C-contiguous and comes back as it is. A sliced batch is strided
    across windows; one copy here, which reads each window's contiguous
    length axis, makes every later reshape to (batch*channels, length) a
    view and every elementwise pass run over contiguous memory.
    """
    x = float_array(x)
    if x.ndim != 3:
        raise ValueError(f"x must have shape (batch, channels, length), got {x.shape}")
    x = np.ascontiguousarray(x)
    if x.shape[2] != block.size:
        raise ValueError(f"x has length {x.shape[2]}, block expects {block.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    return x


class Excitation:
    """Bottleneck excitation: size -> size/reduction -> size, ReLU then sigmoid.

    `size` is the sequence length and the two dense layers act on the
    frequency axis, shared across channels, so every channel gets its own
    length-L attention vector from the same weights.
    """

    def __init__(self, size: int, reduction: int = 2, *, rng: np.random.Generator):
        if size < 1 or reduction < 1:
            raise ValueError(f"size and reduction must be positive, got ({size}, {reduction})")
        if size % reduction != 0:
            raise ValueError(f"size {size} not divisible by reduction {reduction}")
        self.size = size
        hidden = size // reduction
        self.excite1 = DenseLayer(size, hidden, rng)
        self.excite2 = DenseLayer(hidden, size, rng)


def _folded_weight(block: Excitation) -> np.ndarray:
    """D^T W1: the cosine transform folded into the first excitation layer, D in W1's dtype."""
    weight = block.excite1.weight
    return dct_matrix(block.size, ORTHO, weight.dtype).T @ weight


def _excite(rows: np.ndarray, block: Excitation, folded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ReLU activations, attention) of (rows, length) time-domain rows.

    The ReLU and the sigmoid, which adds the second bias, overwrite the matmuls' outputs.
    """
    h1 = rows @ folded
    h1 += block.excite1.bias
    relu_forward(h1, out=h1)
    att = h1 @ block.excite2.weight
    return h1, sigmoid_forward(att, block.excite2.bias, out=att)


def fecam_forward(x, block: Excitation, cache: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Apply frequency attention; returns (rescaled x, attention map).

    The cosine transform is linear and fixed, so the first excitation layer
    applied to the spectrum, (x D^T) W1, is computed as x (D^T W1): one
    matmul over all (batch, channel) rows. The folded weight is rebuilt on
    every call because optimizers and the gradient checker edit W1 in place.
    The attention map is the second matmul's own output array.

    Attention entries are sigmoid outputs, so the rescale never amplifies:
    |out| <= |x| elementwise. Pass a dict as `cache` to retain the
    activations fecam_backward needs.
    """
    x = _check_input(x, block)
    h1, att = _excite(x.reshape(-1, block.size), block, _folded_weight(block))
    att = att.reshape(x.shape)
    out = x * att
    if cache is not None:
        cache.update(x=x, h1=h1, att=att)
    return out, att


def mean_attention(windows, block: Excitation) -> np.ndarray:
    """fecam_forward's attention map averaged over every window, shape (C, L).

    Bit for bit the sum of fecam_forward's attention over batches of
    INFERENCE_BATCH windows, divided by the window count, and checked batch by
    batch as fecam_forward checks its input. The folded weight is built once
    per call rather than once per batch, and the rescaled input x * att,
    which the map does not need, is never formed.
    """
    windows = float_array(windows)
    if windows.ndim != 3 or len(windows) == 0:
        raise ValueError(f"windows must have shape (n >= 1, channels, length), got {windows.shape}")
    folded = _folded_weight(block)
    total = np.zeros(windows.shape[1:])
    for start in range(0, len(windows), INFERENCE_BATCH):
        x = _check_input(windows[start:start + INFERENCE_BATCH], block)
        total += _excite(x.reshape(-1, block.size), block, folded)[1].reshape(x.shape).sum(axis=0)
    return total / len(windows)


def fecam_backward(upstream, block: Excitation, cache: dict, *,
                   input_grad: bool = True) -> np.ndarray | None:
    """Gradient of fecam_forward's output wrt its input and parameters.

    Parameter gradients accumulate into the block's buffers. With the rows of
    x flattened to (B*C, L), the first weight's gradient is D (x^T dz1), D in
    dz1's dtype, and the input gradient flows back through D^T W1, refolded
    from the unchanged W1. Training reads only the parameter gradients, so
    it passes input_grad=False: the same gradients accumulate, the input
    gradient's matmul and product are skipped, and None is returned. The
    sigmoid and ReLU backward passes overwrite the fresh arrays they get.
    """
    if not cache:
        raise ValueError("fecam_backward needs the cache filled by fecam_forward")
    upstream = float_array(upstream)
    x, att = cache["x"], cache["att"]
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {x.shape}")
    rows = x.reshape(-1, block.size)
    h1 = cache["h1"]
    d_z2 = (upstream * x).reshape(rows.shape)
    sigmoid_backward(d_z2, att.reshape(rows.shape), out=d_z2)
    d_z1 = dense_backward(block.excite2, d_z2, h1)
    del d_z2  # so the input gradient is not allocated while it is held
    relu_backward(d_z1, h1, out=d_z1)
    block.excite1.weight_grad += dct_matrix(block.size, ORTHO, d_z1.dtype) @ (rows.T @ d_z1)
    block.excite1.bias_grad += d_z1.sum(axis=0)
    if not input_grad:
        return None
    d_x = (d_z1 @ _folded_weight(block).T).reshape(x.shape)
    d_x += upstream * att
    return d_x


def export_attention(mean_att, path) -> None:
    """Write a window-averaged (C, L) attention map as a position-by-channel CSV.

    fecam_forward scales the time-domain input elementwise, so row l is the
    weight of lookback position l, oldest first; one column per channel.
    """
    mean_att = np.asarray(mean_att, dtype=np.float64)
    if mean_att.ndim != 2:
        raise ValueError(f"mean_att must have shape (channels, length), got {mean_att.shape}")
    write_csv(path, [f"channel_{c}" for c in range(mean_att.shape[0])], mean_att.T)
