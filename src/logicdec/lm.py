"""Next-token scorers.

A scorer owns a fixed vocabulary and hands out per-hypothesis sessions.
``step(session, token)`` consumes one token and returns the distribution for
the next position: a V-long vector from the transformer, an
:class:`NgramDist` from the n-gram model, either read as a vector by
``np.asarray``.  ``step_batch(sessions, tokens, hooks)`` does the same for a
batch of equal-length sessions, one distribution per session of the type
``step`` returns; the default loops ``step``, and a scorer whose model can
run the batch as one forward overrides it.  The decoder makes one
``step_batch`` call per decoder step.  Sessions are single-owner; beam
search clones them when a hypothesis forks.  Scorers that can shift their
internal attention expose ``supports_attention_hooks`` and accept a hook
bundle in ``step``.

The n-gram model here is the desk-scale stand-in for a large pretrained LM:
absolute-discount interpolation at one fixed discount, ``DISCOUNT``, down to
a unigram floor, so every token seen in training has positive probability in
every context.  Such a distribution is the unigram, scaled once per context
order, plus a few sparse corrections: :class:`NgramDist` holds it in that
form, so that the decoder can rank it from the unigram's order without
writing out V entries.
The model keeps the corrections of each context length in flat arrays, one
row per context seen, and a distribution is its model and one row per length.

A token id is a Python or numpy integer, not a bool, in [0, V).
``_check_token`` holds every id a caller hands the package to that rule, and
``ngram_train`` its corpus, vectorised.  The rule's boundaries include the
scorers' steps and sessions, the decoders' BOS, EOS and concepts,
``Vocabulary.token`` and ``surface``, ``FactBase``'s scalar lookups
(``edge_weight``, ``same_stem``), and the domain and set bindings of
``prove`` and ``prove_scalar``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["Scorer", "NgramLM", "NgramDist", "NgramScorer", "ngram_train"]

DISCOUNT = 0.75  # the n-gram model's absolute discount D


class Scorer(abc.ABC):
    """Abstract next-token scorer.

    ``step`` returns a next-position distribution: a V-long vector or an
    :class:`NgramDist`, which ``np.asarray`` writes out.  ``step_batch``
    takes sessions of equal length, their next tokens and, optionally, one
    hook bundle or None per session, and returns one distribution per
    session, in order, of the type ``step`` returns.  This default loops
    ``step``, so a subclass need only implement ``step``.
    """

    vocab_size: int
    supports_attention_hooks: bool = False

    @abc.abstractmethod
    def begin_session(self, targets: Sequence[int] = ()):
        """Fresh decoding session, optionally primed with target words."""

    @abc.abstractmethod
    def step(self, session, token: int, hooks=None):
        """Consume ``token``; return the next-position distribution over V."""

    def step_batch(self, sessions: Sequence, tokens: Sequence[int],
                   hooks: Optional[Sequence] = None) -> list:
        """Consume ``tokens[b]`` in ``sessions[b]``; return one distribution
        per session."""
        return [self.step(session, token, hooks=h) for session, token, h in zip(
            sessions, tokens, [None] * len(sessions) if hooks is None else hooks, strict=True)]


class _Table(NamedTuple):
    """The stats of one context length, a row per context seen: row ``r``'s
    term of the interpolation is ``out = lower * scale[r]; out[ids[a:b]] +=
    add[a:b]`` with ``a, b = indptr[r], indptr[r + 1]``.  Row 0 is no
    context's: scale 1, which changes no float, and no successors."""
    rows: dict[tuple[int, ...], int]   # context -> row, from 1
    scale: np.ndarray     # D * T(h) / c(h), float64
    indptr: np.ndarray    # int64, one more than the rows
    ids: np.ndarray       # successor ids, int64, sorted within a row
    add: np.ndarray       # max(c(hw) - D, 0) / c(h), float64, aligned with ids


class NgramDist:
    """A conditional distribution of an :class:`NgramLM`, not written out:
    the unigram, then per context length, shortest first, ``out = out *
    scale; out[ids] += add`` from that length's row in ``rows``.  Past the
    longest context seen the row is 0: a context's suffixes were seen
    wherever it was.

    ``dense()``, as ``np.asarray`` calls it, writes the V entries out.  The
    model's ``_ranked`` holds the token ids by descending unigram
    probability: a positive scale rounds monotonically, so an entry off the
    corrections is at most any entry off the corrections that comes before
    it there.  ``at`` and ``top_candidates`` take distributions of one
    model, entry ``id`` of the ``i``-th as the key ``i * V + id``.
    """

    __slots__ = ("model", "rows")

    def __init__(self, model: "NgramLM", rows: Sequence[int]):
        self.model = model
        self.rows = rows

    def __len__(self) -> int:
        return self.model.vocab_size

    def dense(self) -> np.ndarray:
        out = self.model._unigram.copy()
        for table, row in zip(self.model._tables, self.rows):
            if not row:
                break
            a, b = table.indptr[row], table.indptr[row + 1]
            out *= table.scale[row]
            out[table.ids[a:b]] += table.add[a:b]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.dense() if dtype is None else self.dense().astype(dtype, copy=False)

    @staticmethod
    def _levels(dists: Sequence["NgramDist"], v: int) -> Iterator[tuple]:
        """Per context length, shortest first: each distribution's scale, its
        stats' keys and adds, gathered from the model's arrays, and its count
        of them."""
        tables = dists[0].model._tables
        rows = np.fromiter(chain.from_iterable(d.rows for d in dists), dtype=np.int64,
                           count=len(dists) * len(tables)).reshape(len(dists), len(tables))
        shift = np.arange(len(dists)) * v
        for j, table in enumerate(tables):
            row = rows[:, j]
            lo, hi = table.indptr[row], table.indptr[row + 1]
            size = hi - lo
            end = size.cumsum()
            at = np.arange(end[-1]) + (hi - end).repeat(size)
            yield table.scale[row], table.ids[at] + shift.repeat(size), table.add[at], size

    @staticmethod
    def block(dists: Sequence["NgramDist"]) -> np.ndarray:
        """Distributions of one model end to end, ``len(dists) * V`` entries,
        by the float operations of ``dense()``: the unigram once per
        distribution, then per level a scale per row and the adds at the
        successor keys (``dense()`` stops at row 0, which scales by 1 and
        adds nothing)."""
        v = len(dists[0])
        out = np.concatenate([dists[0].model._unigram] * len(dists))
        grid = out.reshape(len(dists), v)
        for scale, successors, add, _ in NgramDist._levels(dists, v):
            grid *= scale[:, None]
            out[successors] += add
        return out

    @staticmethod
    def at(dists: Sequence["NgramDist"], keys: np.ndarray, levels=None) -> np.ndarray:
        """The entries at ``keys`` (ascending, no repeats; ``levels`` as from
        ``top_candidates``) by the float operations of ``dense()``, bit for
        bit.  Only the corrections are searched for among the keys, so a
        whole support's keys cost a gather and a multiply per level each."""
        v = len(dists[0])
        rows = keys // v
        out = dists[0].model._unigram[keys - rows * v]
        if not len(keys):
            return out
        for scale, successors, add, _ in levels or NgramDist._levels(dists, v):
            out *= scale[rows]
            pos = keys.searchsorted(successors)
            hit = keys.take(pos, mode="clip") == successors
            out[pos[hit]] += add[hit]
        return out

    @staticmethod
    def top_candidates(dists: Sequence["NgramDist"], k: int) -> tuple:
        """The head: keys, unsorted and possibly repeated, of each one's
        corrections and first ``2k + |corrections|`` ids of ``_ranked`` (the
        count from the levels' sizes), so that ``2k`` entries off the
        corrections reach ``lo``, the value off them of the last, and every
        entry off the head is at most ``lo``; and the levels, for ``at``."""
        v = len(dists[0])
        unigram, ranked = dists[0].model._unigram, dists[0].model._ranked
        levels = list(NgramDist._levels(dists, v))
        size = np.minimum(sum((s for *_, s in levels), np.full(len(dists), 2 * k)), v)
        at = np.arange(size.sum()) - (size.cumsum() - size).repeat(size)  # heads end to end
        keys = np.concatenate([ranked[at] + (np.arange(len(dists)) * v).repeat(size),
                               *(c for _, c, _, _ in levels)])
        lo = unigram[ranked[size - 1]]
        for scale, *_ in levels:
            lo *= scale
        return keys, lo, levels


class NgramLM:
    """Interpolated n-gram model with absolute discounting.

    P(w | h) = max(c(hw) - D, 0)/c(h) + D * T(h)/c(h) * P(w | h'), where T(h)
    counts distinct successors of h and h' drops the oldest context token.
    Unseen contexts fall straight through to the next lower order; the
    unigram level is the empirical distribution, so every conditional
    distribution sums to one and words never seen in training keep
    probability zero.  ``_tables[k - 1]`` holds the contexts of length k,
    for each length up to ``order - 1`` that the corpus holds.
    """

    def __init__(self, order: int, vocab_size: int, tables: list[_Table], unigram: np.ndarray):
        self.order = order
        self.vocab_size = vocab_size
        self._tables = tables
        self._unigram = unigram
        self._ranked = np.argsort(-unigram, kind="stable")

    def dist(self, context: Sequence[int]) -> NgramDist:
        """P(. | context) as an :class:`NgramDist`."""
        ctx = tuple(context)
        return NgramDist(self, [table.rows.get(ctx[-n:], 0)
                                for n, table in enumerate(self._tables, 1)])


def _is_token_id(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _check_token(ids: Iterable, vocab_size: int, what: str = "token id") -> None:
    """Raise ``ValueError``, naming the id as ``what``, unless each of ``ids``
    is a token id (the module docstring's rule, with V = ``vocab_size``)."""
    for t in ids:
        if type(t) is not int and not _is_token_id(type(t)):  # the common case first
            raise ValueError(f"{what} {t!r} is not an integer")
        if not 0 <= t < vocab_size:
            raise ValueError(f"{what} {t} outside vocabulary [0, {vocab_size})")


def ngram_train(corpus: Sequence[Sequence[int]], order: int,
                vocab_size: Optional[int] = None) -> NgramLM:
    """Count-based training over token-id sequences, at discount
    ``DISCOUNT``, into one :class:`_Table` of flat arrays per context length.

    The ids (Python or numpy integers; not bools) are laid end to end in one
    array.  A context of length k is the (context, successor) pair of length
    k - 1 that ends one position earlier, so each position's dense rank among
    the pairs of one length gives its successor's context at the next.  For
    each k, the positions with at least k predecessors in their own sentence
    are sorted by one int64 key, context rank * V + successor: each run of
    equal keys is one n-gram and its length the count, and a context's runs
    give its distinct successors and its total.  The keys stay below V times
    the corpus length, which must be under 2**63.
    """
    if not (1 <= order <= 5):
        raise ValueError(f"order must be in 1..5, got {order}")
    sequences = corpus if isinstance(corpus, (list, tuple)) else [list(s) for s in corpus]
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    if not lengths.any():
        raise ValueError("training corpus is empty")
    if not all(map(_is_token_id, set(map(type, chain.from_iterable(sequences))))):
        tok = next(t for t in chain.from_iterable(sequences) if not _is_token_id(type(t)))
        raise ValueError(f"token id {tok!r} is not an integer")
    n = int(lengths.sum())
    try:
        flat = np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=n)
    except OverflowError:
        tok = next(t for t in chain.from_iterable(sequences) if not -2**63 <= t < 2**63)
        raise ValueError(f"token id {tok} outside the int64 range") from None
    if vocab_size is None:
        vocab_size = int(flat.max()) + 1
    outside = (flat < 0) | (flat >= vocab_size)
    if outside.any():
        raise ValueError(f"token id {flat[outside][0]} outside vocabulary of size {vocab_size}")
    if vocab_size * n >= 2**63:
        raise ValueError(f"vocabulary size {vocab_size} times corpus length {n} "
                         "reaches 2**63")

    uni = np.bincount(flat, minlength=vocab_size)
    # each position's dense rank among the pairs of the last length that end
    # there; of length 0, the pair is the token
    rank = (np.cumsum(uni > 0) - 1)[flat]
    offset = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # in its sentence
    pos = np.arange(n)
    tables: list[_Table] = []
    for k in range(1, order):
        pos = pos[offset[pos] >= k]
        if not len(pos):
            break
        key = rank[pos - 1] * vocab_size + flat[pos]
        perm = np.argsort(key)
        key, m = key[perm], len(pos)
        ctx = key // vocab_size
        new_ctx = np.concatenate(([True], ctx[1:] != ctx[:-1]))
        new_pair = np.concatenate(([True], key[1:] != key[:-1]))
        rank[pos[perm]] = np.cumsum(new_pair) - 1
        pair_at, ctx_at = np.flatnonzero(new_pair), np.flatnonzero(new_ctx)
        counts = np.diff(pair_at, append=m).astype(np.float64)
        starts = np.flatnonzero(new_ctx[pair_at])       # each context's first pair
        sizes = np.diff(starts, append=len(pair_at))     # T(h)
        totals = np.diff(ctx_at, append=m).astype(np.float64)  # c(h)
        first = pos[perm[ctx_at]]                        # a position after each context
        contexts = zip(*[flat[first - j].tolist() for j in range(k, 0, -1)])
        tables.append(_Table(dict(zip(contexts, range(1, len(ctx_at) + 1))),
                             np.concatenate(([1.0], DISCOUNT * sizes / totals)),
                             np.concatenate(([0], starts, [len(pair_at)])),
                             key[pair_at] - ctx[pair_at] * vocab_size,
                             np.maximum(counts - DISCOUNT, 0.0) / np.repeat(totals, sizes)))

    uni = uni.astype(np.float64)
    return NgramLM(order, vocab_size, tables, uni / uni.sum())


@dataclass
class NgramSession:
    window: tuple[int, ...] = ()

    def clone(self) -> "NgramSession":
        return NgramSession(self.window)


class NgramScorer(Scorer):
    def __init__(self, lm: NgramLM):
        self.lm = lm
        self.vocab_size = lm.vocab_size

    def begin_session(self, targets: Sequence[int] = ()) -> NgramSession:
        _check_token(targets, self.vocab_size, "target id")
        return NgramSession()

    def step(self, session: NgramSession, token: int, hooks=None) -> NgramDist:
        if hooks is not None:
            raise ValueError("n-gram scorer does not support attention hooks")
        _check_token((token,), self.vocab_size)
        keep = self.lm.order - 1
        session.window = (session.window + (token,))[-keep:] if keep else ()
        return self.lm.dist(session.window)
