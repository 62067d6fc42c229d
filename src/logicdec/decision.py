"""The decision function: merge a probability distribution with a truth
vector by boosting pre-activation scores.

``pre_activation(P, I, alpha)`` is ``log softmax(log P + I * (alpha * P))``,
the log of the shifted distribution: the decoder ranks it directly for every
scorer, the transformer's included, so it is the one place the prediction
shift happens; ``decide`` is its exponential.  The boost on entry ``i`` is
``alpha * I_i * P_i``: words the rules like gain probability, with the
original probability gating the magnitude so that a near-zero candidate is
never catapulted to the top.  With ``I = 0`` or ``alpha = 0`` the scores are
``log P`` bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["decide", "pre_activation", "softmax", "SCORE_FLOOR"]

# Pre-activation assigned to zero-probability entries.  Finite so that the
# additive boost (which is zero there anyway) cannot produce NaNs.
SCORE_FLOOR = -1e30
# How far the mass of a distribution given to ``decide`` may stray from 1.
SUM_TOLERANCE = 1e-6


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, written into ``out`` when given (it may
    be ``scores`` itself: a batch of V-long rows is worth not copying)."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def pre_activation(p: np.ndarray, truth: np.ndarray | None = None,
                   alpha: float = 0.0) -> np.ndarray:
    """log p, with zero entries floored at ``SCORE_FLOOR``; given ``truth``,
    plus ``b = alpha * I * p`` on its support, minus ``log Z`` with ``Z =
    sum(p * exp(b))``.  ``Z`` is computed from the support alone, so ``p``
    must be a distribution and ``b`` nonnegative."""
    p = np.asarray(p, dtype=np.float64)
    scores = np.log(p, out=np.full(p.shape, SCORE_FLOOR), where=p > 0.0)
    if truth is None:
        return scores
    nz = np.flatnonzero(truth)
    pz = p[nz]
    b = np.asarray(truth, dtype=np.float64)[nz] * (alpha * pz)
    scores[nz] += b
    m = b.max(initial=0.0)
    if m <= 700.0:  # sum(p * expm1(b)) <= exp(m) stays finite
        scores -= np.log1p((pz * np.expm1(b)).sum())
    else:  # shift by the largest boost; the mass off the support weighs exp(-m)
        scores -= m + np.log((pz * np.exp(b - m)).sum() + (1.0 - pz.sum()) * np.exp(-m))
    return scores


def decide(p: np.ndarray, truth: np.ndarray, alpha: float) -> np.ndarray:
    """Shift distribution ``p`` toward entries with high truth values:
    ``exp(pre_activation(p, truth, alpha))``, so entry ``i`` is proportional
    to ``p_i * exp(alpha * I_i * p_i)`` and zero entries stay zero.  Raises
    ``ValueError`` unless ``p`` is a finite distribution, ``truth`` holds
    values in [0, 1] and ``alpha`` is finite and nonnegative."""
    p = np.asarray(p, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if p.shape != truth.shape:
        raise ValueError(f"distribution and truth vector differ in length: "
                         f"{p.shape} vs {truth.shape}")
    for name, value in (("distribution", p), ("truth vector", truth), ("intensity", alpha)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite")
    if alpha < 0:
        raise ValueError(f"intensity must be nonnegative, got {alpha}")
    if np.any(p < 0):
        raise ValueError("distribution contains negative mass")
    if np.any(truth < 0) or np.any(truth > 1):
        raise ValueError("truth values must lie in [0, 1]")
    if abs(p.sum() - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"distribution must sum to 1 within {SUM_TOLERANCE}, got {p.sum()}")
    return np.exp(pre_activation(p, truth, alpha))
