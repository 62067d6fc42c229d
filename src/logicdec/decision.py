"""The decision function: merge a probability distribution with a truth
vector by boosting pre-activation scores.

``decide(P, I, alpha)`` returns ``softmax(log P + I * (alpha * P))``.  The
boost on entry ``i`` is ``alpha * I_i * P_i``: words the rules like gain
probability, with the original probability gating the magnitude so that a
near-zero candidate is never catapulted to the top.  With ``I = 0`` or
``alpha = 0`` the input distribution is reproduced.

The inverse softmax is defined only up to an additive constant; ``log P``
fixes the constant at zero, which makes the identity property exact.  The
decoder applies ``decide`` to every scorer's next-token distribution, the
transformer's included: it is the one place the prediction shift happens.
"""

from __future__ import annotations

import numpy as np

__all__ = ["decide", "pre_activation", "softmax", "SCORE_FLOOR"]

# Pre-activation assigned to zero-probability entries.  Finite so that the
# additive boost (which is zero there anyway) cannot produce NaNs.
SCORE_FLOOR = -1e30


def softmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def pre_activation(p: np.ndarray) -> np.ndarray:
    """Scores whose softmax reproduces ``p``: log p, with zero entries
    floored at a large negative sentinel."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p, out=np.full(p.shape, SCORE_FLOOR), where=p > 0.0)


def decide(p: np.ndarray, truth: np.ndarray, alpha: float) -> np.ndarray:
    """Shift distribution ``p`` toward entries with high truth values.

    Entry ``i`` of the result is proportional to ``p_i * exp(alpha * I_i *
    p_i)``.  Zero-probability entries stay at zero; the output is a valid
    distribution.
    """
    p = np.asarray(p, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if p.shape != truth.shape:
        raise ValueError(f"distribution and truth vector differ in length: "
                         f"{p.shape} vs {truth.shape}")
    if alpha < 0:
        raise ValueError(f"intensity must be nonnegative, got {alpha}")
    if np.any(p < 0):
        raise ValueError("distribution contains negative mass")
    if alpha == 0.0 or not truth.any():
        return p.copy()
    return softmax(pre_activation(p) + truth * (alpha * p))
