"""The decision function: merge a probability distribution with a truth
vector by boosting pre-activation scores.

``pre_activation(P, I, alpha)`` is ``log softmax(log P + I * (alpha * P))``,
the log of the shifted distribution, and the one place the prediction shift
happens: the decoder ranks it for every scorer, the transformer's included,
through ``top_k_shifted``, which scores only the entries that can reach the
top k (of a vector, or of an ``lm.NgramDist`` without writing it out);
``decide`` is its exponential.  The boost on entry ``i`` is
``alpha * I_i * P_i``: words the rules like gain probability, with the
original probability gating the magnitude so that a near-zero candidate is
never catapulted to the top.  With ``I = 0`` or ``alpha = 0`` the scores are
``log P`` bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .lm import NgramDist

__all__ = ["decide", "pre_activation", "top_k_shifted", "support_of", "Support",
           "softmax", "SCORE_FLOOR"]

# Pre-activation assigned to zero-probability entries.  Finite so that the
# additive boost (which is zero there anyway) cannot produce NaNs.
SCORE_FLOOR = -1e30
# How far the mass of a distribution given to ``decide`` may stray from 1.
SUM_TOLERANCE = 1e-6
# Longest vector that ``top_k_shifted`` ranks in full, and the most scores
# that ``_best_k`` sorts; past it, bounding the candidates first is faster
# (the crossover is measured in CHANGES.md).
FULL_RANK_MAX_V = 1024


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, written into ``out`` when given (it may
    be ``scores`` itself: a batch of V-long rows is worth not copying)."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


class Support(NamedTuple):
    """A truth vector with its support: the ids of its nonzero entries,
    ascending, and their values."""
    truth: np.ndarray
    ids: np.ndarray
    values: np.ndarray


def support_of(truth: np.ndarray) -> Support:
    truth = np.asarray(truth, dtype=np.float64)
    ids = np.flatnonzero(truth != 0.0)
    return Support(truth, ids, truth[ids])


def _log(p: np.ndarray) -> np.ndarray:
    return np.log(p, out=np.full(p.shape, SCORE_FLOOR), where=p > 0.0)


def _boost(pz: np.ndarray, support: Support, alpha: float) -> tuple[np.ndarray, float]:
    """``b = alpha * I * p`` on the support, and ``log Z`` with ``Z =
    sum(p * exp(b))``, from ``pz``, the entries of ``p`` on the support."""
    b = support.values * (alpha * pz)
    m = b.max(initial=0.0)
    if m <= 700.0:  # sum(p * expm1(b)) <= exp(m) stays finite
        return b, np.log1p((pz * np.expm1(b)).sum())
    # shift by the largest boost; the mass off the support weighs exp(-m)
    return b, m + np.log((pz * np.exp(b - m)).sum() + (1.0 - pz.sum()) * np.exp(-m))


def _shifted(p: np.ndarray, support: Optional[Support], alpha: float) -> np.ndarray:
    scores = _log(p)
    if support is None:
        return scores
    b, log_z = _boost(p[support.ids], support, alpha)
    scores[support.ids] += b
    scores -= log_z
    return scores


def pre_activation(p: np.ndarray, truth: np.ndarray | None = None,
                   alpha: float = 0.0) -> np.ndarray:
    """log p, with zero entries floored at ``SCORE_FLOOR``; given ``truth``,
    plus ``b = alpha * I * p`` on its support, minus ``log Z`` with ``Z =
    sum(p * exp(b))``.  ``Z`` is computed from the support alone, so ``p``
    must be a distribution and ``b`` nonnegative."""
    p = np.asarray(p, dtype=np.float64)
    return _shifted(p, None if truth is None else support_of(truth), alpha)


def top_k_shifted(p: np.ndarray | NgramDist, support: Optional[Support], alpha: float,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of the ``k`` best entries of ``pre_activation(p,
    support.truth, alpha)`` (``support`` None for no truth vector), best
    first, ties to the smaller id; the scores equal ``pre_activation``'s bit
    for bit.  ``p`` is a vector or an ``NgramDist`` (then read as its
    ``dense()``), and ``1 <= k <= len(p)``.

    Off the support the boost is zero, so a score orders like ``p``: the top
    ``k`` lie on the support or among the entries whose ``p`` reaches the
    ``k``-th largest.  Past ``FULL_RANK_MAX_V`` entries only candidates
    that hold those are scored; the full row is ranked when the vector is
    short, when half of it or more are candidates, or when an entry left
    out could tie the ``k``-th score.
    """
    if len(p) > FULL_RANK_MAX_V:
        top = _top_k_of_candidates(p, support, alpha, k)
        if top is not None:
            return top
    p = p.dense() if isinstance(p, NgramDist) else np.asarray(p, dtype=np.float64)
    scores = _shifted(p, support, alpha)
    ids = _best_k(scores, k)
    return ids, scores[ids]


def _top_k_of_candidates(p: np.ndarray | NgramDist, support: Optional[Support],
                         alpha: float, k: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``top_k_shifted`` from the candidates alone, or None when an entry
    left out could tie the ``k``-th score or when half the row or more are
    candidates (gathering them then costs more than scoring the row)."""
    if isinstance(p, NgramDist):
        ids, lo = p.top_candidates(k)
        if support is not None:
            ids = np.concatenate([ids, support.ids])
        ids.sort()
        ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        if 2 * len(ids) >= len(p):
            return None
        return _rank_candidates(ids, p.at(ids), lo, support, alpha, k)
    p = np.asarray(p, dtype=np.float64)
    # Each of k blocks holds an entry at least its maximum, so the smallest
    # block maximum bounds the k-th largest p from below.  The margin keeps
    # entries whose p lies a few ulps lower, whose score may round to the
    # same value, so that the bound check rarely fails.
    lo = (1.0 - 1e-9) * p[: len(p) // k * k].reshape(k, -1).max(axis=1).min()
    keep = p >= lo
    if support is not None:
        keep[support.ids] = True
    ids = np.flatnonzero(keep)
    if 2 * len(ids) >= len(p):
        return None
    return _rank_candidates(ids, p[ids], lo, support, alpha, k)


def _rank_candidates(ids: np.ndarray, p: np.ndarray, lo: float, support: Optional[Support],
                     alpha: float, k: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``top_k_shifted`` from at least ``k`` ascending candidate ``ids``
    that hold the support, and their ``p``, given that every other entry's
    ``p`` is at most ``lo``; None when such an entry could reach the
    ``k``-th score."""
    scores = _log(p)
    log_z = 0.0
    if support is not None:
        on = np.searchsorted(ids, support.ids)
        b, log_z = _boost(p[on], support, alpha)
        scores[on] += b
    scores -= log_z
    top = _best_k(scores, k)  # ids ascend, so ties go to the smaller
    # an entry left out is off the support with p at most lo: it scores at
    # most log(lo) - log Z, and must not reach the k-th score
    if scores[top[-1]] <= (np.log(lo) if lo > 0.0 else SCORE_FLOOR) - log_z:
        return None
    return ids[top], scores[top]


def _best_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest of at least ``k`` ``scores``, largest
    first, ties to the smaller position.  Up to ``FULL_RANK_MAX_V`` scores
    are sorted; past it only the entries above the ``k``-th score are, and
    the first positions tied with it fill the rest, so that a large tied
    group costs one pass and no sort."""
    if len(scores) <= FULL_RANK_MAX_V:
        return np.argsort(-scores, kind="stable")[:k]
    # the smallest of k block maxima bounds the k-th score from below, and
    # is the k-th score when fewer than k entries lie above it
    kth = scores[: len(scores) // k * k].reshape(k, -1).max(axis=1).min()
    above = np.flatnonzero(scores > kth)
    if len(above) >= k:
        kth = -np.partition(-scores[above], k - 1)[k - 1]
        above = above[scores[above] > kth]
    tied = np.flatnonzero(scores == kth)[: k - len(above)]
    return np.concatenate([above[np.argsort(-scores[above], kind="stable")], tied])


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
