"""Deterministic synthetic series, the fixture data of the test suite."""

import numpy as np

from fecam.data import RawSeries

SYNTH_KINDS = ("sinusoid_mix", "ramp", "square")

# Incommensurate base periods, stretched per channel so that channels carry
# genuinely different spectra rather than rescaled copies of one signal.
_SINUSOID_PERIODS = (13.37, 29.7, 71.3)
_SINUSOID_AMPLITUDES = (1.0, 0.6, 0.4)


def synth_series(kind: str, length: int, channels: int,
                 noise_std: float = 0.0, seed: int = 0) -> RawSeries:
    """Deterministic synthetic multivariate series for tests and demos.

    sinusoid_mix sums three incommensurate sinusoids per channel, with
    channel-specific periods, amplitudes and phases; ramp is strictly
    increasing with a per-channel slope; square alternates at a per-channel
    period. The seed only drives the optional additive noise, so the clean
    signal is identical across seeds.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"kind must be one of {SYNTH_KINDS}, got {kind!r}")
    if length < 1 or channels < 1:
        raise ValueError("length and channels must be positive")
    t = np.arange(length, dtype=np.float64)
    observations = np.empty((length, channels))
    for c in range(channels):
        if kind == "sinusoid_mix":
            stretch = 1.0 + 0.15 * c
            wave = np.zeros(length)
            for k, (period, amp) in enumerate(zip(_SINUSOID_PERIODS, _SINUSOID_AMPLITUDES)):
                phase = 2.0 * np.pi * (0.37 * c + 0.113 * k + 0.051 * c * k)
                wave += amp * (1.0 + 0.2 * c) * np.sin(2.0 * np.pi * t / (period * stretch) + phase)
            observations[:, c] = wave
        elif kind == "ramp":
            observations[:, c] = (0.5 + 0.25 * c) * (t + 1.0)
        else:
            period = 20.0 + 6.0 * c
            observations[:, c] = np.where(np.sin(2.0 * np.pi * t / period + 0.3 * c) >= 0, 1.0, -1.0)
    if noise_std > 0.0:
        observations += np.random.default_rng(seed).normal(0.0, noise_std, observations.shape)
    names = [f"ch{c}" for c in range(channels)]
    return RawSeries(observations, names)
