"""Next-token scorers.

A scorer owns a fixed vocabulary and hands out per-hypothesis sessions.
``step(session, token)`` consumes one token and returns the distribution for
the next position as a V-long vector.  ``step_batch(sessions, tokens, hooks)``
does the same for a batch of equal-length sessions and returns one
distribution per session, a vector or an :class:`NgramDist`; the default
loops ``step``, and a scorer whose model can run the batch as one forward
overrides it.  The decoder makes one ``step_batch`` call per decoder step.
Sessions are single-owner; beam search clones them when a hypothesis
forks.  Scorers that can shift their internal attention expose
``supports_attention_hooks`` and accept a hook bundle in ``step``.

The n-gram model here is the desk-scale stand-in for a large pretrained LM:
absolute-discount interpolation down to a unigram floor, so every token
seen in training has positive probability in every context.  Such a
distribution is the unigram, scaled once per context order, plus a few
sparse corrections: :class:`NgramDist` holds it in that form, so that the
decoder can rank it from the unigram's order without writing out V entries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["Scorer", "NgramLM", "NgramDist", "NgramScorer", "ngram_train"]


class Scorer(abc.ABC):
    """Abstract next-token scorer.

    ``step_batch`` takes sessions of equal length, their next tokens and,
    optionally, one hook bundle or None per session, and returns one
    next-position distribution per session, in order: a V-long vector or an
    :class:`NgramDist`.  This default loops ``step``, so a subclass need only
    implement ``step``.
    """

    vocab_size: int
    supports_attention_hooks: bool = False

    @abc.abstractmethod
    def begin_session(self, targets: Sequence[int] = ()):
        """Fresh decoding session, optionally primed with target words."""

    @abc.abstractmethod
    def step(self, session, token: int, hooks=None) -> np.ndarray:
        """Consume ``token``; return the next-position distribution over V."""

    def step_batch(self, sessions: Sequence, tokens: Sequence[int],
                   hooks: Optional[Sequence] = None) -> list:
        """Consume ``tokens[b]`` in ``sessions[b]``; return one distribution
        per session."""
        if hooks is None:
            hooks = [None] * len(sessions)
        return [self.step(session, token, hooks=h)
                for session, token, h in zip(sessions, tokens, hooks, strict=True)]


class _ContextStats(NamedTuple):
    """One context's term of the interpolation: ``out = lower * scale;
    out[ids] += add``."""
    scale: float          # D * T(h) / c(h)
    ids: np.ndarray       # successor token ids, sorted
    add: np.ndarray       # max(c(hw) - D, 0) / c(h), aligned with ids


class NgramDist:
    """A conditional distribution of an :class:`NgramLM`, not written out:
    the unigram, then per context order that has stats, shortest context
    first, ``out = out * scale; out[ids] += add``.

    ``dense()`` writes the V entries out.  ``ranked`` holds the token ids by
    descending unigram probability: a positive scale rounds monotonically,
    so an entry off the corrections is at most any entry off the
    corrections that comes before it there.  ``at`` and ``top_candidates``
    take distributions of one model, entry ``id`` of the ``i``-th as the
    key ``i * V + id``.
    """

    __slots__ = ("unigram", "ranked", "levels")

    def __init__(self, unigram: np.ndarray, ranked: np.ndarray,
                 levels: list[_ContextStats]):
        self.unigram = unigram
        self.ranked = ranked
        self.levels = levels

    def __len__(self) -> int:
        return len(self.unigram)

    def dense(self) -> np.ndarray:
        out = self.unigram.copy()
        for scale, ids, add in self.levels:
            out *= scale
            out[ids] += add
        return out

    @staticmethod
    def _levels(dists: Sequence["NgramDist"], v: int) -> Iterator[tuple]:
        """Per context order, shortest first: each distribution's scale (1,
        which changes no float, where it has none) and the stats' keys and adds."""
        for j in range(max(len(d.levels) for d in dists)):
            at, stats = zip(*[(i * v, d.levels[j])
                              for i, d in enumerate(dists) if j < len(d.levels)])
            ids = [s[1] for s in stats]
            yield (np.array([d.levels[j][0] if j < len(d.levels) else 1.0 for d in dists]),
                   np.concatenate(ids) + np.repeat(at, [len(x) for x in ids]),
                   np.concatenate([s[2] for s in stats]))

    @staticmethod
    def at(dists: Sequence["NgramDist"], keys: np.ndarray, levels=None) -> np.ndarray:
        """The entries at ``keys`` (ascending, no repeats; ``levels`` as from
        ``top_candidates``) by the float operations of ``dense()``, bit for bit."""
        v = len(dists[0])
        rows = keys // v
        out = dists[0].unigram[keys - rows * v]
        if not len(keys):
            return out
        for scale, successors, add in levels or NgramDist._levels(dists, v):
            out *= scale[rows]
            pos = np.searchsorted(keys, successors)
            hit = keys.take(pos, mode="clip") == successors
            out[pos[hit]] += add[hit]
        return out

    @staticmethod
    def top_candidates(dists: Sequence["NgramDist"], k: int) -> tuple:
        """Keys, unsorted and possibly repeated, of each one's corrections and
        first ``2k + |corrections|`` ids of ``ranked``, so that ``2k`` entries
        off the corrections reach ``lo``, the value off them of the last; levels."""
        v = len(dists[0])
        levels = list(NgramDist._levels(dists, v))
        corrections = [np.empty(0, dtype=np.int64), *(c for _, c, _ in levels)]
        size = np.minimum(2 * k + np.bincount(np.concatenate(corrections) // v,
                                              minlength=len(dists)), v)
        at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)  # heads end to end
        keys = np.concatenate([dists[0].ranked[at] + np.repeat(np.arange(len(dists)) * v, size),
                               *corrections])
        lo = dists[0].unigram[dists[0].ranked[size - 1]]
        for scale, _, _ in levels:
            lo *= scale
        return keys, lo, levels


class NgramLM:
    """Interpolated n-gram model with absolute discounting.

    P(w | h) = max(c(hw) - D, 0)/c(h) + D * T(h)/c(h) * P(w | h'), where T(h)
    counts distinct successors of h and h' drops the oldest context token.
    Unseen contexts fall straight through to the next lower order; the
    unigram level is the empirical distribution, so every conditional
    distribution sums to one and words never seen in training keep
    probability zero.
    """

    def __init__(self, order: int, vocab_size: int, discount: float,
                 tables: list[dict[tuple[int, ...], _ContextStats]],
                 unigram: np.ndarray):
        self.order = order
        self.vocab_size = vocab_size
        self.discount = discount
        self._tables = tables
        self._unigram = unigram
        self._ranked = np.argsort(-unigram, kind="stable")

    def dist(self, context: Sequence[int]) -> NgramDist:
        """P(. | context) as an :class:`NgramDist`."""
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        levels = [stats for n in range(1, len(ctx) + 1)
                  if (stats := self._tables[n].get(ctx[-n:])) is not None]
        return NgramDist(self._unigram, self._ranked, levels)


def ngram_train(corpus: Sequence[Sequence[int]], order: int,
                discount: float = 0.75, vocab_size: Optional[int] = None) -> NgramLM:
    """Count-based training over token-id sequences."""
    if not (1 <= order <= 5):
        raise ValueError(f"order must be in 1..5, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must be in (0, 1), got {discount}")
    sequences = [list(seq) for seq in corpus]
    if not sequences or all(not s for s in sequences):
        raise ValueError("training corpus is empty")
    if vocab_size is None:
        vocab_size = max(max(s) for s in sequences if s) + 1

    raw: list[dict[tuple[int, ...], dict[int, int]]] = [dict() for _ in range(order)]
    uni = np.zeros(vocab_size, dtype=np.float64)
    for seq in sequences:
        for i, tok in enumerate(seq):
            if not (0 <= tok < vocab_size):
                raise ValueError(f"token id {tok} outside vocabulary of size {vocab_size}")
            uni[tok] += 1
            for k in range(1, order):
                if i - k < 0:
                    break
                successors = raw[k].setdefault(tuple(seq[i - k:i]), {})
                successors[tok] = successors.get(tok, 0) + 1

    tables: list[dict[tuple[int, ...], _ContextStats]] = [dict() for _ in range(order)]
    for k in range(1, order):
        if not raw[k]:
            continue
        # every context of the order at once: its sorted (id, count) pairs
        # laid end to end, each context's terms sliced out of the flat arrays
        successors = [sorted(s.items()) for s in raw[k].values()]
        sizes = np.fromiter(map(len, successors), dtype=np.int64, count=len(successors))
        pairs = np.array([pair for s in successors for pair in s], dtype=np.int64)
        ids = np.ascontiguousarray(pairs[:, 0])
        counts = pairs[:, 1].astype(np.float64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        totals = np.add.reduceat(counts, starts)  # integer-valued, so exact
        add = np.maximum(counts - discount, 0.0) / np.repeat(totals, sizes)
        scales = discount * sizes / totals
        for ctx, scale, a, b in zip(raw[k], scales.tolist(), starts.tolist(), ends.tolist()):
            tables[k][ctx] = _ContextStats(scale, ids[a:b], add[a:b])

    unigram = uni / uni.sum()
    return NgramLM(order, vocab_size, discount, tables, unigram)


@dataclass
class NgramSession:
    window: tuple[int, ...] = ()

    def clone(self) -> "NgramSession":
        return NgramSession(self.window)


class NgramScorer(Scorer):
    supports_attention_hooks = False

    def __init__(self, lm: NgramLM):
        self.lm = lm
        self.vocab_size = lm.vocab_size

    def begin_session(self, targets: Sequence[int] = ()) -> NgramSession:
        return NgramSession()

    def _advance(self, session: NgramSession, token: int, hooks) -> tuple[int, ...]:
        if hooks is not None:
            raise ValueError("n-gram scorer does not support attention hooks")
        if not 0 <= token < self.vocab_size:
            raise ValueError(f"token id {token} outside vocabulary")
        keep = self.lm.order - 1
        session.window = (session.window + (token,))[-keep:] if keep else ()
        return session.window

    def step(self, session: NgramSession, token: int, hooks=None) -> np.ndarray:
        return self.lm.dist(self._advance(session, token, hooks)).dense()

    def step_batch(self, sessions: Sequence[NgramSession], tokens: Sequence[int],
                   hooks: Optional[Sequence] = None) -> list[NgramDist]:
        if hooks is None:
            hooks = [None] * len(sessions)
        return [self.lm.dist(self._advance(session, token, h))
                for session, token, h in zip(sessions, tokens, hooks, strict=True)]
