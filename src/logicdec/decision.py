"""The decision function: merge a probability distribution with a truth
vector by boosting pre-activation scores.

``pre_activation(P, I, alpha)`` is ``log softmax(log P + I * (alpha * P))``,
the log of the shifted distribution, and the one place the prediction shift
happens: the decoder ranks it for every scorer with one ``top_k_rows`` call
per step, taking each row's truth as a ``Truth`` (a background plus sparse
entries); ``decide`` is its exponential.  A long row (a vector, or an
``lm.NgramDist`` not written out) is ranked support first: ``log Z`` from the
support, each row's own pairwise sum, then only the support entries that
can place, merged with the entries that can reach the top k.  The boost on
entry ``i`` is ``alpha * I_i * P_i``: words the rules like gain probability,
with the original probability gating the magnitude so that a near-zero
candidate is never catapulted to the top.  With ``I = 0`` or ``alpha = 0``
the scores are ``log P`` bit for bit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .lm import NgramDist
from .truth import Truth

__all__ = ["decide", "pre_activation", "top_k_rows", "support_of", "softmax", "SCORE_FLOOR"]

# Pre-activation assigned to zero-probability entries.  Finite so that the
# additive boost (which is zero there anyway) cannot produce NaNs.
SCORE_FLOOR = -1e30
# How far the mass of a distribution given to ``decide`` may stray from 1.
SUM_TOLERANCE = 1e-6
# Longest row that ``top_k_rows`` ranks in full; past it, bounding the
# candidates first is faster (the crossover is measured in CHANGES.md).
FULL_RANK_MAX_V = 1024


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, written into ``out`` when given (it may
    be ``scores`` itself: a batch of V-long rows is worth not copying)."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def support_of(truth: np.ndarray) -> Truth:
    """A truth vector as its support: background 0, and the ids and values of
    its nonzero entries."""
    truth = np.asarray(truth, dtype=np.float64)
    ids = np.flatnonzero(truth != 0.0)
    return Truth(0.0, ids, truth[ids], len(truth))


def _log(p: np.ndarray) -> np.ndarray:
    return np.log(p, out=np.full(p.shape, SCORE_FLOOR), where=p > 0.0)


def _laid(supports: Sequence[Optional[Truth]], v: int) -> tuple:
    """The supports (None for none) laid end to end: their ids as keys ``i * v
    + id`` (entry ``id`` of row ``i``), their values, and their sizes."""
    sizes = [0 if s is None else len(s.ids) for s in supports]
    held = [s for s in supports if s is not None]
    return (np.concatenate([np.empty(0, dtype=np.int64)] + [s.ids for s in held])
            + (np.arange(len(supports)) * v).repeat(sizes),
            np.concatenate([np.empty(0)] + [s.values for s in held]), sizes)


def _boost(pz: np.ndarray, values: np.ndarray, sizes: list, alpha: float) -> tuple:
    """``b = alpha * I * p`` on supports laid end to end, from ``pz`` and
    ``values`` (``p`` and ``I`` there), and per support ``log Z`` with ``Z =
    sum(p * exp(b))``, its own slice's pairwise sum, to round as if alone."""
    ends = list(accumulate(sizes))
    b = alpha * pz * values
    # where max(b) <= 700, sum(p * expm1(b)) <= exp(max(b)) stays finite (the
    # cap changes no such b, and keeps the other sums finite)
    terms = pz * np.expm1(np.minimum(b, 700.0))
    log_z = np.log1p([terms[e - n:e].sum() for n, e in zip(sizes, ends)])
    if b.max(initial=0.0) > 700.0:
        for r, (n, e) in enumerate(zip(sizes, ends)):
            top, on = b[e - n:e].max(initial=0.0), slice(e - n, e)
            if top > 700.0:  # shift by the largest boost; the mass off the support weighs exp(-top)
                log_z[r] = top + np.log((pz[on] * np.exp(b[on] - top)).sum()
                                        + (1.0 - pz[on].sum()) * np.exp(-top))
    return b, log_z


def _shift(p: np.ndarray, rows: np.ndarray, supports: Sequence[Optional[Truth]],
           alpha: float) -> np.ndarray:
    """``pre_activation`` of rows laid end to end in ``p``, entry ``j`` in row ``rows[j]``."""
    on, values, sizes = _laid(supports, len(p) // len(supports))
    b, log_z = _boost(p[on], values, sizes, alpha)
    scores = _log(p)
    if len(b):  # an empty support has log Z = log1p(0) = 0
        scores[on] += b
        scores -= log_z[rows]
    return scores


def pre_activation(p: np.ndarray, truth: np.ndarray | None = None,
                   alpha: float = 0.0) -> np.ndarray:
    """log p, with zero entries floored at ``SCORE_FLOOR``; given ``truth``,
    plus ``b = alpha * I * p`` on its support, minus ``log Z`` with ``Z =
    sum(p * exp(b))``.  ``Z`` is computed from the support alone, so ``p``
    must be a distribution and ``b`` nonnegative."""
    p = np.asarray(p, dtype=np.float64)
    sups = [None if truth is None else support_of(truth)]
    return _shift(p, np.zeros(len(p), dtype=np.intp), sups, alpha)


def top_k_rows(rows: Sequence[np.ndarray | NgramDist], truths: Sequence[Optional[Truth]],
               alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores, each ``(len(rows), k)``, of the ``k`` best entries of
    each row's ``pre_activation(p, truth.dense(), alpha)`` (``truth`` None for
    no truth vector), best first, ties to the smaller id; the scores equal
    ``pre_activation``'s bit for bit.  ``rows`` are vectors or ``NgramDist``s
    (read as ``np.asarray``) of one length ``V >= k``.

    Off the ids of a truth with background 0 the boost is zero, so a score
    orders like ``p``: past ``FULL_RANK_MAX_V`` entries only the ids that can
    place and the entries whose ``p`` can reach the ``k``-th largest are
    ranked, unless one left out could tie.  A truth with a nonzero background
    boosts every entry, so ``log Z`` needs every ``p``: its row is ranked whole."""
    if len(rows[0]) <= FULL_RANK_MAX_V:
        return _top_k_of_whole(rows, truths, alpha, k)
    whole = np.array([t is not None and t.background != 0.0 for t in truths])
    supports = [None if w else t for t, w in zip(truths, whole)]
    ids, scores, ok = _top_k_of_candidates(rows, supports, alpha, k)
    whole = np.flatnonzero(whole | ~ok)
    if len(whole):
        ids[whole], scores[whole] = _top_k_of_whole([rows[i] for i in whole],
                                                    [truths[i] for i in whole], alpha, k)
    return ids, scores


def _top_k_of_whole(rows: Sequence, truths: Sequence, alpha: float, k: int) -> tuple:
    n, v = len(rows), len(rows[0])
    supports = [t if t is None or t.background == 0.0 else support_of(t.dense()) for t in truths]
    p = NgramDist.block(rows) if _one_model(rows) else np.concatenate(
        rows, dtype=float)
    row = np.repeat(np.arange(n), v)
    scores = _shift(p, row, supports, alpha)
    top = _best_k(scores, row, k)
    return top - np.arange(n)[:, None] * v, scores[top]


def _one_model(rows: Sequence) -> bool:
    return all(isinstance(p, NgramDist) and p.model is rows[0].model for p in rows)


def _top_k_of_candidates(rows: Sequence, supports: Sequence, alpha: float, k: int) -> tuple:
    """``top_k_rows`` for truths of background 0, and whether it holds for
    each row, support first: each entry off a head (the corrections and first
    ids of ``_ranked`` for ``NgramDist``s of one model, else the entries that
    reach the least of ``k`` block maxima) has ``p <= lo``.  A ``None``
    support is no truth, or a row that the caller ranks whole afterwards,
    whose result here is then ignored."""
    n, v = len(rows), len(rows[0])
    on, values, sizes = _laid(supports, v)
    if _one_model(rows):
        head, lo, levels = NgramDist.top_candidates(rows, k)
        def at(keys):
            return NgramDist.at(rows, keys, levels)
    else:
        rows = [np.asarray(row, float) for row in rows]
        # each of k blocks holds an entry at least its maximum; the margin
        # keeps entries a few ulps lower, whose score may round the same
        lo = (1.0 - 1e-9) * np.array([r[: v // k * k].reshape(k, -1).max(1).min() for r in rows])
        head = np.concatenate([(r >= lo[i]).nonzero()[0] + i * v for i, r in enumerate(rows)])
        def at(keys):  # row by row, ascending keys
            cut = keys.searchsorted(np.arange(n + 1) * v)
            return np.concatenate([r[keys[cut[i]:cut[i + 1]] - i * v] for i, r in enumerate(rows)])
    p_on = at(on)
    b, log_z = _boost(p_on, values, sizes, alpha)
    # rounding is monotone: an entry with log p + b <= log lo scores <= log lo - log Z
    log_lo = _log(lo)
    kept = _log(p_on) + b > log_lo.repeat(sizes)
    keys = np.sort(np.concatenate([head, on[kept]]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    row = keys // v
    scores = _log(at(keys))
    scores[keys.searchsorted(on[kept])] += b[kept]
    scores -= log_z[row]
    # a row holds when k candidates score above log lo - log Z, as none left out can
    ok = np.bincount(row[scores > (log_lo - log_z)[row]], minlength=n) >= k
    top = _best_k(scores, row, k)
    return keys[top] - row[top] * v, scores[top], ok


def _best_k(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Positions, ``k`` per row, of each row's ``k`` largest ``scores``,
    largest first, ties to the smaller position; ``rows`` (ascending from
    0, at least ``k`` of each) gives each score's row.  Only the entries at
    or above a row's ``k``-th score are sorted, stably, so ties keep their
    order."""
    sizes = np.bincount(rows)
    n, width = len(sizes), sizes.max()
    if sizes.min() == width:
        grid = scores.reshape(n, width)
    else:
        grid = np.full((n, width), -np.inf)
        grid[rows, np.arange(len(scores)) - (np.cumsum(sizes) - sizes)[rows]] = scores
    kth = np.partition(grid, width - k, axis=1)[:, width - k]
    at = np.flatnonzero(scores >= kth[rows])
    at = at[np.lexsort((-scores[at], rows[at]))]  # by row, then score; ties keep position order
    return at[rows[at].searchsorted(np.arange(n))[:, None] + np.arange(k)]


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
