"""Next-token scorers.

A scorer owns a fixed vocabulary and hands out per-hypothesis sessions.
``step(session, token)`` consumes one token and returns the distribution for
the next position.  ``step_batch(sessions, tokens, hooks)`` does the same for
a batch of equal-length sessions and returns one vector per session; the
default loops ``step``, and a scorer whose model can run the batch as one
forward overrides it.  The decoder makes one ``step_batch`` call per decoder
step.  Sessions are single-owner; beam search clones them when a hypothesis
forks.  Scorers that can shift their internal attention expose
``supports_attention_hooks`` and accept a hook bundle in ``step``.

The n-gram model here is the desk-scale stand-in for a large pretrained LM:
absolute-discount interpolation down to a unigram floor, so every token has
positive probability in every context.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["Scorer", "NgramLM", "NgramScorer", "ngram_train"]


class Scorer(abc.ABC):
    """Abstract next-token scorer.

    ``step_batch`` takes sessions of equal length, their next tokens and,
    optionally, one hook bundle or None per session, and returns one
    next-position distribution per session, in order.  This default loops
    ``step``, so a subclass need only implement ``step``.
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
                   hooks: Optional[Sequence] = None) -> list[np.ndarray]:
        """Consume ``tokens[b]`` in ``sessions[b]``; return one distribution
        per session."""
        if hooks is None:
            hooks = [None] * len(sessions)
        return [self.step(session, token, hooks=h)
                for session, token, h in zip(sessions, tokens, hooks, strict=True)]


@dataclass
class _ContextStats:
    ids: np.ndarray       # successor token ids, sorted
    counts: np.ndarray    # successor counts, aligned with ids
    total: float
    n_types: int


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

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._dist(ctx)

    def _dist(self, ctx: tuple[int, ...]) -> np.ndarray:
        if not ctx:
            return self._unigram.copy()
        stats = self._tables[len(ctx)].get(ctx)
        if stats is None:
            return self._dist(ctx[1:])
        lower = self._dist(ctx[1:])
        d = self.discount
        out = lower * (d * stats.n_types / stats.total)
        out[stats.ids] += np.maximum(stats.counts - d, 0.0) / stats.total
        return out


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
        for ctx, successors in raw[k].items():
            ids = np.fromiter(sorted(successors), dtype=np.int64)
            counts = np.array([successors[int(i)] for i in ids], dtype=np.float64)
            tables[k][ctx] = _ContextStats(ids, counts, float(counts.sum()), len(ids))

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

    def step(self, session: NgramSession, token: int, hooks=None) -> np.ndarray:
        if hooks is not None:
            raise ValueError("n-gram scorer does not support attention hooks")
        if not 0 <= token < self.vocab_size:
            raise ValueError(f"token id {token} outside vocabulary")
        keep = self.lm.order - 1
        session.window = (session.window + (token,))[-keep:] if keep else ()
        return self.lm.next_dist(session.window)
