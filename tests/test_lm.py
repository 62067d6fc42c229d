import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicdec.lm import NgramDist, NgramScorer, ngram_train


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
        assert (a == b).all()

    def test_hooks_rejected(self):
        lm = ngram_train(toy_corpus(), order=2, vocab_size=6)
        scorer = NgramScorer(lm)
        assert not scorer.supports_attention_hooks
        with pytest.raises(ValueError, match="hooks"):
            scorer.step(scorer.begin_session(), 0, hooks=object())

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

    @settings(max_examples=200, deadline=None)
    @given(ngram_contexts(), st.integers(1, 50))
    def test_top_candidates_bound_every_entry_left_out(self, case, k):
        lm, ctx, _ = case
        dist = lm.dist(ctx)
        ids, (lo,), _ = NgramDist.top_candidates([dist], k)
        left_out = np.setdiff1d(np.arange(lm.vocab_size), ids)
        assert (dist.dense()[left_out] <= lo).all()

    def test_step_batch_returns_the_steps_distributions(self):
        scorer = NgramScorer(ngram_train(toy_corpus(), order=3, vocab_size=6))
        batch = [scorer.begin_session() for _ in range(3)]
        loop = [s.clone() for s in batch]
        for tokens in ([0, 0, 0], [2, 3, 5]):
            dists = scorer.step_batch(batch, tokens)
            assert all(isinstance(d, NgramDist) for d in dists)
            for d, session, token in zip(dists, loop, tokens):
                assert d.dense().tobytes() == scorer.step(session, token).tobytes()
        with pytest.raises(ValueError, match="hooks"):
            scorer.step_batch(batch, [1, 1, 1], [None, object(), None])
