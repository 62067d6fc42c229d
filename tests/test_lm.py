import re
import tracemalloc
from typing import NamedTuple, Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicdec.kb import load_factbase
from logicdec.lm import NgramDist, NgramLM, NgramScorer, ngram_train

from conftest import DATA, corpus_ids


@pytest.fixture(scope="module")
def world_7_corpus(world_7):
    """The seed-7 V=50k world's corpus, each sentence after <s>, and its V."""
    vocab = load_factbase(world_7 / "factbase.snap").vocab
    lines = (world_7 / "corpus.txt").read_text("utf-8").splitlines()
    return [[vocab.id_of("<s>")] + [vocab.id_of(w) for w in line.split()]
            for line in lines if line.split()], len(vocab)


def toy_corpus():
    # ids over a 6-token vocabulary: 0=<s> 1=</s> 2..5 words
    return [
        [0, 2, 3, 4, 1],
        [0, 2, 3, 5, 1],
        [0, 2, 4, 5, 1],
        [0, 3, 4, 1],
    ]


class TestTraining:
    def test_unigram_matches_empirical_frequencies(self):
        lm = ngram_train([[2, 2, 3]], order=1, discount=0.5, vocab_size=4)
        dist = lm.dist(()).dense()
        assert dist.tolist() == [0.0, 0.0, 2 / 3, 1 / 3]

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            ngram_train(toy_corpus(), order=6)

    @pytest.mark.parametrize("discount", [0.0, 1.0, -0.5, 1.5])
    def test_discount_out_of_range(self, discount):
        with pytest.raises(ValueError, match="discount"):
            ngram_train(toy_corpus(), order=2, discount=discount)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            ngram_train([], order=2)

    def test_unseen_context_backs_off(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        unseen = lm.dist((5, 2)).dense()       # context never observed
        backoff = lm.dist((2,)).dense()        # its lower-order fallback
        assert unseen == pytest.approx(backoff)

    def test_normalization_over_random_contexts(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ctx = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(0, 4)))
            dist = lm.dist(ctx).dense()
            assert abs(dist.sum() - 1.0) <= 1e-6
            assert (dist >= 0).all()
            # every token observed in training stays reachable
            assert (dist > 0).all()


    @pytest.mark.parametrize("bad", [True, np.bool_(False), 2.7, 2.0, np.float64(1.0), "3",
                                     None])
    def test_ids_that_are_not_integers_are_refused(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"token id {bad!r} is not an integer")):
            ngram_train([[1, 2], [3, bad, 1]], order=2, vocab_size=6)
        with pytest.raises(ValueError, match="is not an integer"):
            ngram_train([[1, bad, 3]], order=1)

    def test_bool_ids_no_longer_count_as_masks(self):
        # before, uni[True] += 1 counted every token once more
        with pytest.raises(ValueError, match="token id True is not an integer"):
            ngram_train([[1, True, 3]], order=1, vocab_size=4)
        assert ngram_train([[1, 1, 3]], order=1, vocab_size=4).dist(()).dense().tolist() == \
            [0.0, 2 / 3, 0.0, 1 / 3]

    def test_python_and_numpy_integers_train_the_same_model(self):
        corpus = toy_corpus()
        as_numpy = [[np.int32(t) if i % 2 else np.int64(t) for i, t in enumerate(s)]
                    for s in corpus]
        assert_same_model(ngram_train(as_numpy, order=3, vocab_size=6),
                          as_oracle(ngram_train(corpus, order=3, vocab_size=6)), 0.75)
        assert_same_model(ngram_train(np.array([[0, 2, 3, 1]]), order=2),
                          as_oracle(ngram_train([[0, 2, 3, 1]], order=2)), 0.75)

    def test_keys_past_int64_are_refused(self):
        # a pair key is at most V times the corpus length
        with pytest.raises(ValueError, match=r"times corpus length 2 reaches 2\*\*63"):
            ngram_train([[0, 1]], order=2, vocab_size=2**62)

    @pytest.mark.parametrize("corpus, token", [
        ([[0, 6]], "6"), ([[-1, 2]], "-1"), ([[0, 2**70]], str(2**70)),
        ([[0, np.uint64(2**64 - 1)]], str(2**64 - 1))])
    def test_ids_outside_the_vocabulary_are_refused(self, corpus, token):
        with pytest.raises(ValueError, match=f"token id {token} outside"):
            ngram_train(corpus, order=2, vocab_size=6)


class _ContextStats(NamedTuple):
    """One context's term of the interpolation: ``out = lower * scale;
    out[ids] += add``."""
    scale: float          # D * T(h) / c(h)
    ids: np.ndarray       # successor token ids, sorted
    add: np.ndarray       # max(c(hw) - D, 0) / c(h), aligned with ids


def _ngram_train_oracle(corpus: Sequence[Sequence[int]], order: int,
                        discount: float = 0.75, vocab_size: Optional[int] = None) -> tuple:
    """The dict-counting trainer that ``ngram_train`` replaced, kept verbatim
    as its oracle; it returns per context length the context -> stats dict,
    and the unigram."""
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
    return tables, unigram


def context_stats(lm: NgramLM) -> list[dict[tuple[int, ...], _ContextStats]]:
    """Per context length 0..order-1, each context's stats, read from the
    model's flat arrays in row order."""
    tables: list[dict[tuple[int, ...], _ContextStats]] = [dict() for _ in range(lm.order)]
    for k, table in enumerate(lm._tables, 1):
        assert table.scale.dtype == np.float64 and table.indptr.dtype == np.int64
        assert list(table.rows.values()) == list(range(1, len(table.scale)))
        assert table.scale[0] == 1.0 and table.indptr[0] == table.indptr[1] == 0
        scales, indptr = table.scale.tolist(), table.indptr.tolist()
        for ctx, row in table.rows.items():
            a, b = indptr[row], indptr[row + 1]
            tables[k][ctx] = _ContextStats(scales[row], table.ids[a:b], table.add[a:b])
    return tables


def assert_same_model(lm: NgramLM, oracle: tuple, discount: float) -> None:
    """Equal settings, and per order the same contexts with bitwise-equal
    stats; ``oracle`` is ``(tables, unigram)``."""
    tables, unigram = oracle
    assert (lm.order, lm.vocab_size, lm.discount) == (len(tables), len(unigram), discount)
    assert lm._unigram.tobytes() == unigram.tobytes()
    assert lm._ranked.tobytes() == np.argsort(-unigram, kind="stable").tobytes()
    got = context_stats(lm)
    assert len(got) == len(tables)
    for table, expected in zip(got, tables):
        assert table.keys() == expected.keys()
        for ctx, (scale, ids, add) in table.items():
            assert all(type(t) is int for t in ctx)
            assert type(scale) is float
            assert np.float64(scale).tobytes() == np.float64(expected[ctx].scale).tobytes()
            assert ids.dtype == np.int64 and ids.tobytes() == expected[ctx].ids.tobytes()
            assert add.dtype == np.float64 and add.tobytes() == expected[ctx].add.tobytes()


def as_oracle(lm: NgramLM) -> tuple:
    """A trained model as ``assert_same_model``'s expected tables and unigram."""
    return context_stats(lm), lm._unigram


@st.composite
def training_corpora(draw):
    """A corpus over a few ids, so that n-grams repeat, with empty, one-token
    and shorter-than-the-order sentences; an order, a discount and a
    vocabulary size that is None or past the largest id."""
    top = draw(st.integers(0, 12))
    sentence = st.lists(st.integers(0, top), max_size=draw(st.sampled_from([1, 3, 10])))
    corpus = draw(st.lists(sentence, min_size=1, max_size=10).filter(any))
    vocab_size = draw(st.one_of(st.none(), st.integers(1, 4).map(
        lambda extra: max(max(s) for s in corpus if s) + extra)))
    discount = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return corpus, draw(st.integers(1, 5)), discount, vocab_size


class TestTrainingOracle:
    @settings(max_examples=400, deadline=None)
    @given(training_corpora())
    @example(([[0, 1, 0, 1, 0, 1]], 5, 0.75, None))
    @example(([[], [3], [1, 2], [1, 2, 1, 2, 1]], 3, 0.5, 7))
    def test_arrays_equal_the_dict_counting_oracle_bitwise(self, case):
        corpus, order, discount, vocab_size = case
        assert_same_model(ngram_train(corpus, order, discount, vocab_size),
                          _ngram_train_oracle(corpus, order, discount, vocab_size), discount)

    def test_tuple_and_generator_corpora_train_the_list_model(self):
        # lists and tuples are read in place, other iterables copied once
        corpus = toy_corpus()
        oracle = _ngram_train_oracle(corpus, 3, 0.75, 6)
        for form in (tuple(corpus), [tuple(seq) for seq in corpus],
                     (list(seq) for seq in corpus), (iter(seq) for seq in corpus)):
            assert_same_model(ngram_train(form, 3, vocab_size=6), oracle, 0.75)

    def test_toy_and_seed_7_world_corpora_equal_the_oracle_bitwise(self, toy_vocab,
                                                                    world_7_corpus):
        corpora = [(corpus_ids(toy_vocab, DATA / name), len(toy_vocab))
                   for name in ("corpus_lexical.txt", "corpus_dialogue.txt")]
        corpora.append(world_7_corpus)
        for corpus, v in corpora:
            for order in (1, 3, 5):
                assert_same_model(ngram_train(corpus, order, vocab_size=v),
                                  _ngram_train_oracle(corpus, order, vocab_size=v), 0.75)


class TestRetainedMemory:
    def test_seed_7_world_model_retains_under_4_mb(self, world_7_corpus):
        """The order-3 model of the seed-7 world's corpus (72k tokens,
        V = 50,000, 10,291 contexts) retains 3.0 MB as flat per-order arrays
        and a context -> row dict per order; with a NamedTuple and two array
        views per context it retained 5.8 MB."""
        corpus, v = world_7_corpus
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lm = ngram_train(corpus, 3, vocab_size=v)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(t.rows) for t in lm._tables) == 10_291
        assert retained < 4_000_000


class TestScorer:
    def test_session_protocol(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        scorer = NgramScorer(lm)
        session = scorer.begin_session()
        d1 = scorer.step(session, 0)
        assert d1 == pytest.approx(lm.dist((0,)).dense())
        d2 = scorer.step(session, 2)
        assert d2 == pytest.approx(lm.dist((0, 2)).dense())

    def test_sessions_fork_independently(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        scorer = NgramScorer(lm)
        session = scorer.begin_session()
        scorer.step(session, 0)
        fork = session.clone()
        scorer.step(session, 2)
        scorer.step(fork, 3)
        assert session.window != fork.window

    def test_step_is_deterministic(self):
        lm = ngram_train(toy_corpus(), order=2, vocab_size=6)
        scorer = NgramScorer(lm)
        a = scorer.step(scorer.begin_session(), 0)
        b = scorer.step(scorer.begin_session(), 0)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_hooks_rejected(self):
        lm = ngram_train(toy_corpus(), order=2, vocab_size=6)
        scorer = NgramScorer(lm)
        assert not scorer.supports_attention_hooks
        with pytest.raises(ValueError, match="hooks"):
            scorer.step(scorer.begin_session(), 0, hooks=object())

    @pytest.mark.parametrize("bad", [True, 1.0, np.float64(1.0)],
                             ids=["bool", "float", "numpy-float"])
    def test_tokens_that_are_not_integers_rejected(self, bad):
        # each once scored as token 1 and went into the window
        scorer = NgramScorer(ngram_train(toy_corpus(), order=3, vocab_size=6))
        message = f"token id {re.escape(repr(bad))} is not an integer"
        session = scorer.begin_session()
        with pytest.raises(ValueError, match=message):
            scorer.step(session, bad)
        batch = [scorer.begin_session(), scorer.begin_session()]
        with pytest.raises(ValueError, match=message):
            scorer.step_batch(batch, [0, bad])
        assert session.window == () and batch[1].window == ()

    @pytest.mark.parametrize("token", [-1, 6])
    def test_token_ids_outside_the_vocabulary_rejected(self, token):
        scorer = NgramScorer(ngram_train(toy_corpus(), order=2, vocab_size=6))
        with pytest.raises(ValueError, match="outside vocabulary"):
            scorer.step(scorer.begin_session(), token)


@st.composite
def ngram_contexts(draw):
    """A model trained on a random corpus, and a context that was seen, was
    never seen, or was never seen but ends in a seen one (so it backs off)."""
    v = draw(st.integers(1, 40))
    order = draw(st.integers(1, 5))
    active = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=12, unique=True))
    corpus = draw(st.lists(st.lists(st.sampled_from(active), min_size=1, max_size=12),
                           min_size=1, max_size=8))
    lm = ngram_train(corpus, order, draw(st.sampled_from([0.1, 0.5, 0.75, 0.9])),
                     vocab_size=v)
    seq = draw(st.sampled_from(corpus))
    end = draw(st.integers(0, len(seq)))
    seen = seq[max(0, end - order + 1):end]
    ctx = draw(st.sampled_from([
        seen, [draw(st.integers(0, v - 1))] + seen,
        draw(st.lists(st.integers(0, v - 1), max_size=5))]))
    ids = np.array(sorted(draw(st.sets(st.integers(0, v - 1)))), dtype=np.int64)
    return lm, ctx, ids


@st.composite
def ngram_batches(draw):
    """A model trained on a random corpus and a batch of its distributions:
    contexts seen at every length up to the order (so the depths mix), the
    empty context, contexts never seen, and repeats."""
    v = draw(st.integers(1, 30))
    order = draw(st.integers(1, 5))
    corpus = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=10),
                           min_size=1, max_size=6))
    lm = ngram_train(corpus, order, draw(st.sampled_from([0.1, 0.5, 0.75, 0.9])),
                     vocab_size=v)
    seen = [s[max(0, end - n):end] for s in corpus for end in range(len(s) + 1)
            for n in range(order)]
    contexts = draw(st.lists(st.one_of(st.sampled_from(seen), st.just([]),
                                       st.lists(st.integers(0, v - 1), max_size=5)),
                             min_size=1, max_size=8))
    contexts += draw(st.lists(st.sampled_from(contexts), max_size=3))
    return lm, [lm.dist(ctx) for ctx in contexts]


class TestNgramDist:
    @settings(max_examples=300, deadline=None)
    @given(ngram_contexts())
    def test_at_equals_the_dense_gather(self, case):
        lm, ctx, ids = case
        dist = lm.dist(ctx)
        dense = dist.dense()
        assert dense.tobytes() == lm.dist(ctx).dense().tobytes()
        assert NgramDist.at([dist], ids).tobytes() == dense[ids].tobytes()
        assert len(dist) == lm.vocab_size

    @settings(max_examples=100, deadline=None)
    @given(ngram_contexts(), st.sampled_from([None, np.float64]))
    def test_asarray_is_the_dense_vector(self, case, dtype):
        lm, ctx, _ = case
        dist = lm.dist(ctx)
        vector = np.asarray(dist, dtype=dtype)
        assert vector.dtype == np.float64 and vector.tobytes() == dist.dense().tobytes()

    @settings(max_examples=200, deadline=None)
    @given(ngram_contexts(), st.integers(1, 50))
    def test_top_candidates_bound_every_entry_left_out(self, case, k):
        lm, ctx, _ = case
        dist = lm.dist(ctx)
        ids, (lo,), _ = NgramDist.top_candidates([dist], k)
        left_out = np.setdiff1d(np.arange(lm.vocab_size), ids)
        assert (dist.dense()[left_out] <= lo).all()

    @settings(max_examples=300, deadline=None)
    @given(ngram_batches(), st.integers(1, 30), st.randoms(use_true_random=False))
    def test_batched_gathers_equal_each_dense(self, case, k, rng):
        lm, dists = case
        v = lm.vocab_size
        dense = np.concatenate([d.dense() for d in dists])
        assert NgramDist.block(dists).tobytes() == dense.tobytes()
        assert NgramDist.at(dists, np.arange(len(dense))).tobytes() == dense.tobytes()
        some = np.array(sorted(rng.sample(range(len(dense)), rng.randint(0, len(dense)))),
                        dtype=np.int64)
        assert NgramDist.at(dists, some).tobytes() == dense[some].tobytes()
        head, lo, levels = NgramDist.top_candidates(dists, k)
        keys = np.unique(head)
        assert NgramDist.at(dists, keys, levels).tobytes() == dense[keys].tobytes()
        left_out = np.setdiff1d(np.arange(len(dense)), keys)
        assert (dense[left_out] <= lo[left_out // v]).all()

    def test_step_batch_returns_the_steps_distributions(self):
        scorer = NgramScorer(ngram_train(toy_corpus(), order=3, vocab_size=6))
        batch = [scorer.begin_session() for _ in range(3)]
        loop = [s.clone() for s in batch]
        for tokens in ([0, 0, 0], [2, 3, 5]):
            dists = scorer.step_batch(batch, tokens)
            assert all(isinstance(d, NgramDist) for d in dists)
            for d, session, token in zip(dists, loop, tokens):
                step = scorer.step(session, token)
                assert isinstance(step, NgramDist) and step.rows == d.rows
                assert d.dense().tobytes() == step.dense().tobytes()
        with pytest.raises(ValueError, match="hooks"):
            scorer.step_batch(batch, [1, 1, 1], [None, object(), None])
