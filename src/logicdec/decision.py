"""The decision function: merge a probability distribution with a truth
vector by boosting pre-activation scores.

``pre_activation(P, I, alpha)`` is ``log softmax(log P + I * (alpha * P))``,
the log of the shifted distribution, and the one place the prediction shift
happens: the decoder ranks it for every scorer with one ``top_k_rows`` call
per step, which scores all rows together, and of long rows only the entries
that can reach their top k (of a vector, or of an ``lm.NgramDist`` without
writing it out), taking each row's truth as a ``Truth`` (a background plus
sparse entries); ``decide`` is its exponential.  The boost on entry ``i`` is
``alpha * I_i * P_i``: words the rules like gain probability, with the
original probability gating the magnitude so that a near-zero candidate is
never catapulted to the top.  With ``I = 0`` or ``alpha = 0`` the scores are
``log P`` bit for bit.
"""

from __future__ import annotations

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


def _boost(pz: np.ndarray, supports: Sequence[Truth], alpha: float) -> tuple:
    """``b = alpha * I * p`` on nonempty supports laid end to end, from
    ``pz``, the entries of ``p`` there, and per support ``log Z`` with ``Z =
    sum(p * exp(b))``, summed over its own slice to round as if alone."""
    sizes = np.array([len(s.ids) for s in supports])
    starts = np.cumsum(sizes) - sizes
    b = np.concatenate([s.values for s in supports]) * (alpha * pz)
    m = np.maximum(np.maximum.reduceat(b, starts), 0.0)
    # where m <= 700, sum(p * expm1(b)) <= exp(m) stays finite (the cap
    # changes no such b, and keeps the other sums finite)
    terms = pz * np.expm1(np.minimum(b, 700.0))
    log_z = np.log1p([terms[i:i + n].sum() for i, n in zip(starts, sizes)])
    for r in np.flatnonzero(m > 700.0):
        # shift by the largest boost; the mass off the support weighs exp(-m)
        on = slice(starts[r], starts[r] + sizes[r])
        log_z[r] = m[r] + np.log((pz[on] * np.exp(b[on] - m[r])).sum()
                                 + (1.0 - pz[on].sum()) * np.exp(-m[r]))
    return b, log_z


def _shift(p: np.ndarray, rows: np.ndarray, on: np.ndarray,
           supports: Sequence[Optional[Truth]], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``pre_activation`` of rows laid end to end in ``p``, given each entry's
    row and the supports' positions ``on``, and each row's ``log Z``."""
    scores = _log(p)
    log_z = np.zeros(len(supports))
    boosted = [i for i, s in enumerate(supports) if s is not None and len(s.ids)]
    if boosted:  # an empty support has log Z = log1p(0) = 0
        b, log_z[boosted] = _boost(p[on], [supports[i] for i in boosted], alpha)
        scores[on] += b
        scores -= log_z[rows]
    return scores, log_z


def pre_activation(p: np.ndarray, truth: np.ndarray | None = None,
                   alpha: float = 0.0) -> np.ndarray:
    """log p, with zero entries floored at ``SCORE_FLOOR``; given ``truth``,
    plus ``b = alpha * I * p`` on its support, minus ``log Z`` with ``Z =
    sum(p * exp(b))``.  ``Z`` is computed from the support alone, so ``p``
    must be a distribution and ``b`` nonnegative."""
    p = np.asarray(p, dtype=np.float64)
    sups = [None if truth is None else support_of(truth)]
    return _shift(p, np.zeros(len(p), dtype=np.intp), _keys(sups, len(p)), sups, alpha)[0]


def top_k_rows(rows: Sequence[np.ndarray | NgramDist], truths: Sequence[Optional[Truth]],
               alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores, each ``(len(rows), k)``, of the ``k`` best entries of
    each row's ``pre_activation(p, truth.dense(), alpha)`` (``truth`` None for
    no truth vector), best first, ties to the smaller id; the scores equal
    ``pre_activation``'s bit for bit.  ``rows`` are vectors or ``NgramDist``s
    (read as ``np.asarray``) of one length ``V >= k``.

    Off the ids of a truth with background 0 the boost is zero, so a score
    orders like ``p``: past ``FULL_RANK_MAX_V`` entries only those ids and the
    entries whose ``p`` can reach the ``k``-th largest are ranked, unless one
    left out could tie.  A truth with a nonzero background boosts every
    entry, so ``log Z`` needs every ``p``: its row is ranked whole."""
    ranked = np.array([t is None or t.background == 0.0 for t in truths])
    supports = [t if ok else support_of(t.dense()) for t, ok in zip(truths, ranked)]
    if len(rows[0]) <= FULL_RANK_MAX_V:
        return _top_k_of_whole(rows, supports, alpha, k)
    ids, scores = np.empty((len(rows), k), dtype=np.int64), np.empty((len(rows), k))
    part = np.flatnonzero(ranked)
    if len(part):  # the rows that hold stay ranked
        ids[part], scores[part], ranked[part] = _top_k_of_candidates(
            [rows[i] for i in part], [supports[i] for i in part], alpha, k)
    whole = np.flatnonzero(~ranked)
    if len(whole):
        ids[whole], scores[whole] = _top_k_of_whole([rows[i] for i in whole],
                                                    [supports[i] for i in whole], alpha, k)
    return ids, scores


def _top_k_of_whole(rows: Sequence, supports: Sequence, alpha: float, k: int) -> tuple:
    n, v = len(rows), len(rows[0])
    p = NgramDist.at(rows, np.arange(n * v)) if _one_model(rows) else np.concatenate(
        rows, dtype=float)
    row = np.repeat(np.arange(n), v)
    scores, _ = _shift(p, row, _keys(supports, v), supports, alpha)
    top = _best_k(scores, row, k)
    return top - np.arange(n)[:, None] * v, scores[top]


def _one_model(rows: Sequence) -> bool:
    return all(isinstance(p, NgramDist) and p.model is rows[0].model for p in rows)


def _keys(supports: Sequence[Optional[Truth]], v: int) -> np.ndarray:
    """The supports' ids as keys ``i * v + id`` (entry ``id`` of row ``i``)."""
    on = [(i * v, s.ids) for i, s in enumerate(supports) if s is not None]
    return np.concatenate([np.empty(0, dtype=np.int64)] + [ids for _, ids in on]) + np.repeat(
        np.array([i for i, _ in on], dtype=np.int64), [len(ids) for _, ids in on])


def _top_k_of_candidates(rows: Sequence, supports: Sequence, alpha: float, k: int) -> tuple:
    """``top_k_rows`` from each row's candidates, and whether that holds: the
    support plus corrections and ``ranked`` head for ``NgramDist``s of one
    model, else the entries that reach the least of ``k`` block maxima."""
    n, v = len(rows), len(rows[0])
    on = _keys(supports, v)
    if _one_model(rows):
        head, lo, levels = NgramDist.top_candidates(rows, k)
        keys = np.sort(np.concatenate([head, on]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        p = NgramDist.at(rows, keys, levels)
    else:  # row by row, while each V-long row is in cache
        keys, p, lo = [], [], []
        for i, (row, support) in enumerate(zip(rows, supports)):
            row = np.asarray(row, float)
            # each of k blocks holds an entry at least its maximum; the margin
            # keeps entries a few ulps lower, whose score may round the same
            lo.append((1.0 - 1e-9) * row[: v // k * k].reshape(k, -1).max(1).min())
            keep = row >= lo[-1]
            if support is not None:
                keep[support.ids] = True
            keys.append(np.flatnonzero(keep) + i * v)
            p.append(row[keys[-1] - i * v])
        keys, p, lo = np.concatenate(keys), np.concatenate(p), np.array(lo)
    row = keys // v
    scores, log_z = _shift(p, row, np.searchsorted(keys, on), supports, alpha)
    # an entry left out has p <= lo, so it scores at most log(lo) - log Z: a
    # row holds when k candidates score above that; its top k are among them
    above = scores > (_log(lo) - log_z)[row]
    ok = np.bincount(row[above], minlength=n) >= k
    ids, top_scores = np.empty((n, k), dtype=np.int64), np.empty((n, k))
    pos = np.flatnonzero(above & ok[row])
    if len(pos):
        top = pos[_best_k(scores[pos], (np.cumsum(ok) - 1)[row[pos]], k)]
        ids[ok], top_scores[ok] = keys[top] - row[top] * v, scores[top]
    return ids, top_scores, ok


def _best_k(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Positions, ``k`` per row, of each row's ``k`` largest ``scores``,
    largest first, ties to the smaller position; ``rows`` (ascending from
    0, at least ``k`` of each) gives each score's row.  Only the entries
    above a row's ``k``-th score are sorted; the first tied ones fill up."""
    sizes = np.bincount(rows)
    n, width = len(sizes), sizes.max()
    if sizes.min() == width:
        grid = scores.reshape(n, width)
    else:
        grid = np.full((n, width), -np.inf)
        grid[rows, np.arange(len(scores)) - (np.cumsum(sizes) - sizes)[rows]] = scores
    kth = np.partition(grid, width - k, axis=1)[:, width - k][rows]
    keep = scores > kth
    tied = np.flatnonzero(scores == kth)
    rank = np.arange(len(tied)) - np.searchsorted(rows[tied], np.arange(n))[rows[tied]]
    keep[tied[rank < (k - np.bincount(rows[keep], minlength=n))[rows[tied]]]] = True
    top = np.flatnonzero(keep).reshape(n, k)
    return top[np.arange(n)[:, None], np.argsort(-scores[top], axis=1, kind="stable")]


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
