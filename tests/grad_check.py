"""Central-difference gradient checker for the hand-written backward passes."""

import numpy as np


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
