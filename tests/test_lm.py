import numpy as np
import pytest

from logicdec.lm import NgramScorer, ngram_train


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
        dist = lm.next_dist(())
        assert dist.tolist() == [0.0, 0.0, 2 / 3, 1 / 3]

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            ngram_train(toy_corpus(), order=6)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            ngram_train([], order=2)

    def test_unseen_context_backs_off(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        unseen = lm.next_dist((5, 2))       # context never observed
        backoff = lm.next_dist((2,))        # its lower-order fallback
        assert unseen == pytest.approx(backoff)

    def test_normalization_over_random_contexts(self):
        lm = ngram_train(toy_corpus(), order=3, vocab_size=6)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ctx = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(0, 4)))
            dist = lm.next_dist(ctx)
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
        assert d1 == pytest.approx(lm.next_dist((0,)))
        d2 = scorer.step(session, 2)
        assert d2 == pytest.approx(lm.next_dist((0, 2)))

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
