"""Spectral kernels: DCT-II/III, DFT, symmetric extension, Fourier partial
sums, the Gibbs overshoot at a wave's jump, and truncated reconstructions.

The cosine transform is an O(L^2) product with a cached, read-only basis
matrix, built once per (length, normalization, dtype); its inverse applies
the same matrix transposed. The unitary DFT goes through ``numpy.fft``, so
the even-extension oracle shares no algorithm with the cosine path. Every
function is pure and safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Scale tags for the cosine transform. ``UNNORMALIZED`` is the bare cosine
#: sum f_l = sum_i x_i cos(pi*l/L*(i+1/2)); ``ORTHO`` applies sqrt(1/L) to
#: index 0 and sqrt(2/L) elsewhere so the transform matrix is orthogonal.
UNNORMALIZED = "unnormalized"
ORTHO = "ortho"

#: Limiting overshoot of a truncated Fourier sum next to a unit jump,
#: as a fraction of the jump size.
GIBBS_CONSTANT = 0.089489872236

#: Bytes that one (points x order) float64 temporary of fourier_partial_sum
#: may take; blocks hold up to 256 points, fewer at orders above 16,384.
PARTIAL_SUM_BLOCK_BYTES = 32 * 2**20


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def _check_normalization(normalization: str) -> str:
    if normalization not in (UNNORMALIZED, ORTHO):
        raise ValueError(f"unknown normalization {normalization!r}")
    return normalization


@dataclass(frozen=True)
class Spectrum:
    """DCT coefficients of a signal, tagged with the scale they were made under."""

    coefficients: np.ndarray
    normalization: str

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        _check_normalization(self.normalization)


@dataclass(frozen=True)
class FourierSeriesModel:
    """Real Fourier series on one period of a wave that jumps at x = 0.

    The series is 0.5*a0 + sum_n a_n cos(2 pi n x / period) + b_n sin(2 pi n x / period).
    ``coefficients(n)`` returns ``(a_n, b_n)`` for an array of orders n >= 1,
    so the wave is its coefficient formula and holds no arrays. ``left_limit``
    and ``right_limit`` are the wave's limits just before and just after x = 0.
    """

    period: float
    a0: float
    coefficients: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    left_limit: float
    right_limit: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def jump(self) -> float:
        return self.right_limit - self.left_limit


# ---------------------------------------------------------------------------
# Cosine transform
# ---------------------------------------------------------------------------

# Keys are the arguments as passed: the attention layer always passes its
# array's dtype and no other caller does. No command holds more than two keys:
# train one per dtype (float64 to validate, float32 to step); theorems two, as
# round_trip inverts at the forward's key; attention and compaction one.
# Against maxsize=8, theorems --trials 500 --max-len 720 missed 902 of 1,105
# calls, not 892; at --trials 300 --max-len 1500 (2-vCPU Xeon, seeds 0 and 1)
# peak RSS fell from 166-196 to 108-118 MiB at 8-9 s wall time either way.
@lru_cache(maxsize=2)
def dct_matrix(length: int, normalization: str = ORTHO, dtype=np.float64) -> np.ndarray:
    """Forward transform matrix in `dtype`, read-only; row l holds the l-th cosine basis vector."""
    _check_normalization(normalization)
    if length < 1:
        raise ValueError("length must be >= 1")
    i = np.arange(length)
    mat = np.cos(np.pi * np.outer(np.arange(length), i + 0.5) / length)
    if normalization == ORTHO:
        scale = np.full(length, np.sqrt(2.0 / length))
        scale[0] = np.sqrt(1.0 / length)
        mat = mat * scale[:, None]
    mat = mat.astype(dtype, copy=False)
    mat.setflags(write=False)
    return mat


def dct_forward(x, normalization: str = ORTHO) -> Spectrum:
    """Type-II cosine transform of a 1-D signal."""
    x = _as_signal(x)
    mat = dct_matrix(x.size, _check_normalization(normalization))
    return Spectrum(mat @ x, normalization)


def dct_inverse(spectrum: Spectrum) -> np.ndarray:
    """Exact inverse of :func:`dct_forward` under the spectrum's own tag."""
    coeffs = np.asarray(spectrum.coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("spectrum must hold a nonempty 1-D coefficient vector")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("spectrum contains non-finite coefficients")
    if spectrum.normalization == UNNORMALIZED:
        # Rows of the bare cosine matrix have squared norm L (l=0) and L/2
        # (l>0), so the inverse is the transpose with those weights undone.
        weights = np.full(coeffs.size, 2.0 / coeffs.size)
        weights[0] = 1.0 / coeffs.size
        coeffs = coeffs * weights
    return dct_matrix(coeffs.size, spectrum.normalization).T @ coeffs


# ---------------------------------------------------------------------------
# Fourier transform (unitary convention)
# ---------------------------------------------------------------------------

def dft_forward(x) -> np.ndarray:
    """Unitary DFT of a real 1-D signal; returns the complex bin vector."""
    return np.fft.fft(_as_signal(x), norm="ortho")


def dft_inverse(coefficients) -> np.ndarray:
    """Unitary inverse DFT. Returns the real part; the caller is expected to
    pass conjugate-symmetric bins (anything produced from a real signal)."""
    c = np.asarray(coefficients, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D sequence")
    return np.fft.ifft(c, norm="ortho").real


def symmetric_extension(x) -> np.ndarray:
    """Half-sample even extension [x_0 .. x_{L-1}, x_{L-1} .. x_0].

    The extension is palindromic, so its periodic repetition has no endpoint
    jump regardless of how the original signal's ends differ.
    """
    x = _as_signal(x)
    return np.concatenate([x, x[::-1]])


def dct_via_even_dft(x) -> np.ndarray:
    """Unnormalized DCT coefficients computed through the DFT of the even
    extension: f_l = 0.5*sqrt(2L) * Re[exp(-i pi l / (2L)) * DFT(ext)_l].

    Independent of the cosine-matrix path; used as the cross-check oracle for
    the two transforms agreeing on even-extended input.
    """
    x = _as_signal(x)
    length = x.size
    bins = dft_forward(symmetric_extension(x))[:length]
    phase = np.exp(-1j * np.pi * np.arange(length) / (2 * length))
    return 0.5 * np.sqrt(2 * length) * (phase * bins).real


# ---------------------------------------------------------------------------
# Fourier partial sums and the Gibbs overshoot
# ---------------------------------------------------------------------------

def fourier_partial_sum(model: FourierSeriesModel, order: int, x):
    """Order-N partial sum of the series at x (scalar or array), for any N >= 0,
    a block of points at a time so that each (points x order) temporary stays
    within PARTIAL_SUM_BLOCK_BYTES, or one point wide when one row exceeds it."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.full(x_arr.shape, 0.5 * model.a0)
    if order > 0:
        n = np.arange(1, order + 1)
        cos_c, sin_c = model.coefficients(n)
        points = min(256, max(1, PARTIAL_SUM_BLOCK_BYTES // (8 * order)))
        for start in range(0, x_arr.size, points):
            block = slice(start, start + points)
            angles = 2 * np.pi * np.outer(x_arr[block], n) / model.period
            total[block] += np.cos(angles) @ cos_c
            total[block] += np.sin(angles) @ sin_c
    return total if np.ndim(x) else float(total[0])


def square_wave_series(amplitude: float = 1.0) -> FourierSeriesModel:
    """Series of the +-amplitude square wave sign(sin(x)), period 2 pi.

    Coefficients are analytic: a_n = 0, b_n = 4A/(pi n) for odd n, zero otherwise.
    """
    return FourierSeriesModel(
        period=2 * np.pi, a0=0.0,
        coefficients=lambda n: (np.zeros(n.shape),
                                np.where(n % 2 == 1, 4 * amplitude / (np.pi * n), 0.0)),
        left_limit=-amplitude, right_limit=amplitude)


def pulse_wave_series(amplitude: float = 1.0) -> FourierSeriesModel:
    """Series of the period-1 0/A pulse that is A on (0, d), duty d = 1/3.

    a0 = 2*A*d, a_n = A*sin(2 pi n d)/(pi n), b_n = A*(1 - cos(2 pi n d))/(pi n).
    Unlike the square wave, its partial sums at the jump are not pinned to the
    midpoint by symmetry, which makes it a real convergence probe.
    """
    duty = 1.0 / 3.0
    return FourierSeriesModel(
        period=1.0, a0=2 * amplitude * duty,
        coefficients=lambda n: (amplitude * np.sin(2 * np.pi * n * duty) / (np.pi * n),
                                amplitude * (1 - np.cos(2 * np.pi * n * duty)) / (np.pi * n)),
        left_limit=0.0, right_limit=amplitude)


def gibbs_overshoot(model: FourierSeriesModel, order: int) -> float:
    """Overshoot S_N f(period/(2N)) - f(0+) of the order-N partial sum.

    For a jump of size a this converges to a * GIBBS_CONSTANT; the sign of
    the limit follows the sign of the jump.
    """
    if model.jump == 0:
        raise ValueError("wave has zero jump; overshoot is undefined")
    if order < 1:
        raise ValueError("order must be >= 1")
    return fourier_partial_sum(model, order, model.period / (2 * order)) - model.right_limit


def gibbs_sweep(model: FourierSeriesModel, orders) -> list[tuple[int, float, float]]:
    """Overshoot per order next to the wave's jump; rows (N, overshoot, target)."""
    target = model.jump * GIBBS_CONSTANT
    return [(int(n), gibbs_overshoot(model, int(n)), target) for n in orders]


# ---------------------------------------------------------------------------
# Truncated reconstruction and energy compaction
# ---------------------------------------------------------------------------

def truncated_reconstructions(x, ns) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Rebuild x from its n lowest-frequency components, for every n in ns.

    x is transformed once per kind, and each n truncates a copy. The DCT keeps
    orthonormal coefficients 0..n-1; the DFT keeps the DC bin plus the
    ceil((n-1)/2) lowest conjugate bin pairs so the reconstruction stays real.
    Returns rows (n, dct_reconstruction, dft_reconstruction) in the order of ns.
    """
    x = _as_signal(x)
    length = x.size
    if not ns:
        raise ValueError("ns must be nonempty")
    for n in ns:
        if not 1 <= n <= length:
            raise ValueError(f"component count {n} outside [1, {length}]")
    coefficients = dct_forward(x, ORTHO).coefficients
    bins = dft_forward(x)
    rows = []
    for n in ns:
        kept = coefficients.copy()
        kept[n:] = 0.0
        kept_bins = bins.copy()
        top = n // 2  # ceil((n-1)/2)
        kept_bins[top + 1:length - top] = 0.0  # keep bins 0..top and L-top..L-1
        rows.append((n, dct_inverse(Spectrum(kept, ORTHO)), dft_inverse(kept_bins)))
    return rows


def edge_error(x, recon) -> float:
    """Max reconstruction error over the outermost two samples at each end.

    The DFT's implicit periodic extension sees a jump whenever the signal's
    endpoints differ, so ramp-like inputs ring at the boundary; the even
    extension behind the DCT does not.
    """
    x = _as_signal(x)
    edge = np.r_[0:2, x.size - 2:x.size] if x.size >= 4 else np.arange(x.size)
    return float(np.max(np.abs(np.asarray(recon)[edge] - x[edge])))


def low_frequency_signal(length: int = 16) -> np.ndarray:
    """Sum of the first three cosine basis vectors; the energy-compaction fixture."""
    i = np.arange(length)
    return sum(np.cos(np.pi * l / length * (i + 0.5)) for l in range(3))
