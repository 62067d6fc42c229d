import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logicdec.decision import (FULL_RANK_MAX_V, SCORE_FLOOR, _top_k_of_candidates,
                                decide, pre_activation, softmax, support_of,
                                top_k_rows)
from logicdec.lm import NgramDist, ngram_train
from logicdec.truth import Truth


def normalized(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr / arr.sum()


def top_k_shifted(p, support, alpha, k):
    """``top_k_rows`` of the one row ``p``."""
    ids, scores = top_k_rows([p], [support], alpha, k)
    return ids[0], scores[0]


class TestPreActivation:
    def test_single_point(self):
        assert pre_activation(np.array([1.0])).tolist() == [0.0]

    def test_round_trip(self):
        p = np.array([0.25, 0.75])
        assert softmax(pre_activation(p)) == pytest.approx(p, abs=1e-9)

    def test_zero_entries_floored(self):
        scores = pre_activation(np.array([0.0, 1.0]))
        assert scores[0] == SCORE_FLOOR
        assert scores[1] == 0.0

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=1, max_size=32),
           st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=1, max_size=32),
           st.floats(0, 1e3))
    @example([0.9, 0.1], [1.0, 0.0], 1e3)            # boost 900: past exp's range
    @example([0.8, 0.0, 0.2], [1.0, 1.0, 0.0], 1e3)  # boost 800, mass off the support
    def test_shift_matches_softmax_reference(self, raw, truth, alpha):
        n = min(len(raw), len(truth))
        assume(sum(raw[:n]) > 0)
        p = normalized(raw[:n])
        truth = np.array(truth[:n])
        with np.errstate(divide="ignore"):
            s = np.log(p) + alpha * truth * p
        reference = np.exp(s - s.max())
        reference /= reference.sum()
        out = np.exp(pre_activation(p, truth, alpha))
        assert np.abs(out - reference).max() <= 1e-9
        # no truth or no intensity: the plain scores, bit for bit
        assert np.array_equal(pre_activation(p, np.zeros(n), alpha), pre_activation(p))
        assert np.array_equal(pre_activation(p, truth, 0.0), pre_activation(p))


class TestDecide:
    def test_zero_truth_is_identity(self):
        p = normalized([0.2, 0.3, 0.5])
        out = decide(p, np.zeros(3), 7.0)
        assert out == pytest.approx(p, abs=1e-9)

    def test_zero_alpha_is_identity(self):
        p = normalized([0.1, 0.9])
        out = decide(p, np.ones(2), 0.0)
        assert out == pytest.approx(p, abs=1e-9)

    def test_closed_form_example(self):
        out = decide(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 2.0)
        e = math.e
        assert out == pytest.approx([e / (e + 1), 1 / (e + 1)], abs=1e-9)
        assert out == pytest.approx([0.7311, 0.2689], abs=1e-4)

    def test_zero_probability_stays_zero(self):
        p = np.array([0.0, 1.0])
        for truth in (np.array([1.0, 0.0]), np.array([1.0, 1.0])):
            out = decide(p, truth, 5.0)
            assert out[0] == 0.0
            assert out[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("p, truth, alpha, message", [
        ([0.5, 0.5], [1.0], 1.0, "differ in length"),
        ([0.5, 0.5], [1.0, 0.0], -1.0, "nonnegative"),
        ([-0.1, 1.1], [1.0, 0.0], 1.0, "negative mass"),
        ([math.nan, 1.0], [1.0, 0.0], 1.0, "distribution is not finite"),
        ([math.inf, 0.0], [0.0, 0.0], 1.0, "distribution is not finite"),
        ([0.5, 0.5], [math.nan, 0.0], 1.0, "truth vector is not finite"),
        ([0.5, 0.5], [1.0, 0.0], math.nan, "intensity is not finite"),
        ([0.5, 0.5], [1.0, 0.0], math.inf, "intensity is not finite"),
        ([0.5, 0.5], [1.5, 0.0], 1.0, r"truth values must lie in \[0, 1\]"),
        ([0.5, 0.5], [-0.5, 0.0], 1.0, r"truth values must lie in \[0, 1\]"),
        ([0.0, 0.0], [1.0, 0.0], 1.0, "sum to 1"),
        ([1.0, 3.0], [0.0, 0.0], 1.0, "sum to 1"),
        ([0.5, 0.5 + 1e-5], [1.0, 0.0], 1.0, "sum to 1"),
    ])
    def test_validation(self, p, truth, alpha, message):
        with pytest.raises(ValueError, match=message):
            decide(np.array(p, dtype=float), np.array(truth, dtype=float), alpha)

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=32),
           st.lists(st.floats(0, 1), min_size=2, max_size=32),
           st.floats(0, 50))
    def test_normalization(self, raw, truth, alpha):
        n = min(len(raw), len(truth))
        p = normalized(raw[:n])
        out = decide(p, np.array(truth[:n]), alpha)
        assert abs(out.sum() - 1.0) <= 1e-6
        assert (out >= 0).all()

    def test_boost_ordering(self):
        # equal input probability, higher truth value => higher output
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(3, 24))
            p = normalized(rng.random(n) + 0.01)
            p[0] = p[1] = (p[0] + p[1]) / 2
            p = normalized(p)
            truth = rng.random(n)
            truth[0], truth[1] = 0.9, 0.1
            alpha = float(rng.uniform(0.1, 40))
            out = decide(p, truth, alpha)
            assert out[0] > out[1]

    def test_boost_magnitude_coupled_to_probability(self):
        # fixed truth 1: the multiplicative boost exp(alpha * p_w) grows with
        # the original probability, so rule control never rescues a hopeless
        # candidate; checked on the output ratio while the boosted word does
        # not yet dominate the normalizer
        ratios = []
        for pw in (0.02, 0.05, 0.1, 0.2):
            p = normalized([pw, 1.0 - pw])
            out = decide(p, np.array([1.0, 0.0]), 4.0)
            ratios.append(out[0] / p[0])
        assert ratios == sorted(ratios)
        assert ratios[0] > 1.0

    def test_float32_inputs_promoted(self):
        p = np.array([0.5, 0.5], dtype=np.float32)
        out = decide(p, np.array([1, 0], dtype=np.float32), 2.0)
        assert out.dtype == np.float64
        assert out[0] == pytest.approx(math.e / (math.e + 1), abs=1e-7)


@st.composite
def ranking_cases(draw):
    """(p, truth or None, alpha, k) for the top-k kernel: rows on both sides
    of ``FULL_RANK_MAX_V``, with few distinct values, ulp-adjacent values
    (which can round to equal shifted scores), zeros, support entries whose
    p is 0, and fewer than k positive entries."""
    v = draw(st.integers(1, 40) | st.integers(FULL_RANK_MAX_V + 1, FULL_RANK_MAX_V + 40))
    k = draw(st.integers(1, min(v, 8)))
    # a background weight under most entries; 0 leaves the row sparse
    weights = np.full(v, draw(st.sampled_from([0.0, 0.0, 1.0, 3.0])))
    picked = draw(st.lists(st.integers(0, v - 1), max_size=12, unique=True))
    for i in picked:
        weights[i] = draw(st.sampled_from([0.0, 1.0, 2.0, 5.0, 50.0]))
    assume(weights.any())
    p = weights / weights.sum()
    for i in picked:  # a few ulps down
        for _ in range(draw(st.integers(0, 2))):
            p[i] = np.nextafter(p[i], 0.0)
    truth = None
    if draw(st.booleans()):
        truth = np.zeros(v)
        for i in draw(st.lists(st.integers(0, v - 1), max_size=8, unique=True)):
            truth[i] = draw(st.sampled_from([1.0, 0.5, 1e-3]))
    # 1e30: every score off the support rounds to -log Z, so all of them tie
    alpha = draw(st.floats(0.0, 1e3) | st.sampled_from([24.0, 1e30]))
    return p, truth, alpha, k


class TestTopK:
    @settings(max_examples=500, deadline=None)
    @given(ranking_cases())
    @example((np.array([0.25, 0.25, 0.5]), None, 0.0, 2))
    # token 0 is one ulp below token 2 and rounds to the same log
    @example((np.array([np.nextafter(1e-3, 0.0), 0.998, 1e-3, 0.0]), None, 0.0, 2))
    # off the support every score is -log Z: tokens 0, 2 and 3 tie
    @example((np.array([1.0, 2.0, 3.0, 3.0]) / 9.0, np.array([0.0, 1.0, 0.0, 0.0]), 1e30, 2))
    # flat rows: a V=50k group tied at the k-th place, on and off the support
    @example((np.full(50_000, 1 / 50_000), (np.arange(50_000) % 200 == 0) * 1.0, 24.0, 20))
    @example((np.full(50_000, 1 / 50_000), None, 0.0, 20))
    def test_equals_a_lexsort_of_pre_activation(self, case):
        p, truth, alpha, k = case
        scores = pre_activation(p, truth, alpha)
        support = None if truth is None else support_of(truth)
        results = [top_k_shifted(p, support, alpha, k)]
        # the candidate path alone, at every size; a row that does not hold
        # goes to the full ranking
        bounded, bounded_scores, holds = _top_k_of_candidates([p], [support], alpha, k)
        if holds[0]:
            results.append((bounded[0], bounded_scores[0]))
        for ids, got in results:
            assert_lexsort_top_k(ids, got, scores, k)


def assert_lexsort_top_k(ids, got, scores, k):
    """``ids`` and ``got`` are the top ``k`` of ``scores`` in lexsort order,
    bit for bit."""
    want = np.lexsort((np.arange(len(scores)), -scores))[:k]
    # entries at the floor are never expanded, so their order is free
    n = int((scores[want] > SCORE_FLOOR / 2).sum())
    assert ids.tolist()[:n] == want.tolist()[:n]
    assert got[:n].tobytes() == scores[want][:n].tobytes()
    assert len(ids) == k and (got[n:] <= SCORE_FLOOR / 2).all()


@st.composite
def ngram_ranking_cases(draw):
    """(n-gram distribution, truth or None, alpha, k) past
    ``FULL_RANK_MAX_V``: a model of a random corpus over a few active
    tokens (so small counts tie, and most of the unigram is zero) in a seen,
    unseen or backed-off context; supports that favour the likely tokens;
    k from 1 to beyond V/2; and boosts past 700."""
    v = draw(st.integers(FULL_RANK_MAX_V + 1, FULL_RANK_MAX_V + 600))
    order = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.choice(v, size=draw(st.integers(1, 300)), replace=False)
    corpus = [rng.choice(active, size=rng.integers(1, 15)).tolist()
              for _ in range(draw(st.integers(1, 60)))]
    lm = ngram_train(corpus, order, vocab_size=v)
    seq = corpus[rng.integers(len(corpus))]
    end = int(rng.integers(0, len(seq) + 1))
    ctx = seq[max(0, end - order + 1):end]
    if draw(st.booleans()):
        ctx = [int(rng.integers(v))] + ctx
    dist = lm.dist(ctx)
    k = draw(st.integers(1, 40) | st.integers(1, v))
    truth = None
    if draw(st.booleans()):
        truth = np.zeros(v)
        on = rng.choice(np.concatenate([active, rng.integers(0, v, size=20)]),
                        size=draw(st.integers(0, 60)))
        truth[on] = rng.choice([1.0, 0.5, 1e-3, rng.random()], size=len(on))
    alpha = draw(st.floats(0.0, 1e3) | st.sampled_from([24.0, 1e4, 1e6, 1e30]))
    return dist, truth, alpha, k


class TestTopKOfNgramDist:
    @settings(max_examples=300, deadline=None)
    @given(ngram_ranking_cases())
    def test_equals_the_top_k_of_the_dense_row(self, case):
        dist, truth, alpha, k = case
        support = None if truth is None else support_of(truth)
        ids, scores = top_k_shifted(dist, support, alpha, k)
        want_ids, want_scores = top_k_shifted(dist.dense(), support, alpha, k)
        assert ids.tolist() == want_ids.tolist()
        assert scores.tobytes() == want_scores.tobytes()


def dense_row(draw, v):
    """A distribution over ``v`` entries as ``ranking_cases`` draws them, or
    a flat one, whose entries all tie."""
    if draw(st.booleans()):
        return np.full(v, 1.0 / v)
    weights = np.full(v, draw(st.sampled_from([0.0, 0.0, 1.0, 3.0])))
    picked = draw(st.lists(st.integers(0, v - 1), max_size=12, unique=True))
    for i in picked:
        weights[i] = draw(st.sampled_from([0.0, 1.0, 2.0, 5.0, 50.0]))
    if not weights.any():
        weights[draw(st.integers(0, v - 1))] = 1.0
    p = weights / weights.sum()
    for i in picked:
        for _ in range(draw(st.integers(0, 2))):
            p[i] = np.nextafter(p[i], 0.0)
    return p


@st.composite
def beam_cases(draw):
    """(rows, supports, alpha, k) as a decoder step ranks them: 1 to 24 rows
    of one length, short or past ``FULL_RANK_MAX_V``; past it, n-gram
    distributions of one model mixed with dense rows; supports shared
    between rows, of one row, or None; and boosts past 700."""
    long = draw(st.booleans())
    v = draw(st.integers(FULL_RANK_MAX_V + 1, FULL_RANK_MAX_V + 300) if long
             else st.integers(1, 40))
    k = draw(st.integers(1, min(v, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lm = None
    if long:
        active = rng.choice(v, size=draw(st.integers(1, 200)), replace=False)
        corpus = [rng.choice(active, size=rng.integers(1, 12)).tolist()
                  for _ in range(draw(st.integers(1, 40)))]
        lm = ngram_train(corpus, draw(st.integers(1, 4)), vocab_size=v)

    def truth():
        t = np.zeros(v)
        on = rng.choice(v, size=draw(st.integers(0, min(v, 60))))
        t[on] = rng.choice([1.0, 0.5, 1e-3, rng.random()], size=len(on))
        return support_of(t)

    shared = [truth(), truth()]
    rows, supports = [], []
    for _ in range(draw(st.integers(1, 24))):
        if lm is not None and draw(st.booleans()):
            seq = corpus[rng.integers(len(corpus))]
            end = int(rng.integers(0, len(seq) + 1))
            rows.append(lm.dist(seq[max(0, end - 3):end]))
        else:
            rows.append(dense_row(draw, v))
        kind = draw(st.sampled_from(["none", "shared", "shared", "own"]))
        supports.append(None if kind == "none" else truth() if kind == "own"
                        else shared[draw(st.integers(0, 1))])
    alpha = draw(st.floats(0.0, 1e3) | st.sampled_from([24.0, 1e4, 1e30]))
    return rows, supports, alpha, k


@st.composite
def ngram_beam_cases(draw):
    """(rows, supports, alpha, k) of a beam past ``FULL_RANK_MAX_V`` whose rows
    are all n-gram distributions of one model, as at V=50k: 1 to 24 rows
    sharing 2 or 3 truths of up to 400 ids (past numpy's 128-entry pairwise
    block), many of them at ids the corpus never uses (unigram 0); boosts
    past 700."""
    v = draw(st.integers(FULL_RANK_MAX_V + 1, FULL_RANK_MAX_V + 600))
    k = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.choice(v, size=draw(st.integers(1, 300)), replace=False)
    corpus = [rng.choice(active, size=rng.integers(1, 12)).tolist()
              for _ in range(draw(st.integers(1, 40)))]
    lm = ngram_train(corpus, draw(st.integers(1, 4)), vocab_size=v)
    truths = []
    for _ in range(draw(st.integers(2, 3))):
        t = np.zeros(v)
        on = np.concatenate([rng.choice(active, size=draw(st.integers(0, len(active)))),
                             rng.choice(v, size=draw(st.integers(0, 200)))])
        t[on] = rng.choice([1.0, 0.5, 1e-3, rng.random()], size=len(on))
        truths.append(support_of(t))
    rows, supports = [], []
    for _ in range(draw(st.integers(1, 24))):
        seq = corpus[rng.integers(len(corpus))]
        end = int(rng.integers(0, len(seq) + 1))
        rows.append(lm.dist(seq[max(0, end - 3):end]))
        supports.append(truths[draw(st.integers(0, len(truths) - 1))])
    alpha = draw(st.floats(0.0, 1e3) | st.sampled_from([24.0, 1e4, 1e30]))
    return rows, supports, alpha, k


class TestTopKRows:
    @settings(max_examples=200, deadline=None)
    @given(beam_cases())
    def test_every_row_equals_a_lexsort_of_pre_activation(self, case):
        rows, supports, alpha, k = case
        ids, got = top_k_rows(rows, supports, alpha, k)
        assert ids.shape == got.shape == (len(rows), k)
        for row, support, row_ids, row_got in zip(rows, supports, ids, got):
            p = row.dense() if isinstance(row, NgramDist) else row
            scores = pre_activation(p, None if support is None else support.dense(), alpha)
            assert_lexsort_top_k(row_ids, row_got, scores, k)

    @settings(max_examples=400, deadline=None)
    @given(ngram_beam_cases())
    def test_all_ngram_beams_equal_a_lexsort_of_pre_activation(self, case):
        rows, supports, alpha, k = case
        ids, got = top_k_rows(rows, supports, alpha, k)
        for row, support, row_ids, row_got in zip(rows, supports, ids, got):
            scores = pre_activation(row.dense(), support.dense(), alpha)
            assert_lexsort_top_k(row_ids, row_got, scores, k)

    @settings(max_examples=100, deadline=None)
    @given(beam_cases(), st.data())
    def test_rows_whose_truth_has_a_background_equal_a_lexsort_too(self, case, data):
        # a truth with a background: nonzero off its ids, so every entry is boosted
        rows, supports, alpha, k = case
        truths = [t if t is None or not data.draw(st.booleans()) else
                  Truth(data.draw(st.sampled_from([1e-3, 0.5, 1.0])), t.ids, t.values,
                        t.size).canonical() for t in supports]
        ids, got = top_k_rows(rows, truths, alpha, k)
        for row, truth, row_ids, row_got in zip(rows, truths, ids, got):
            p = row.dense() if isinstance(row, NgramDist) else row
            scores = pre_activation(p, None if truth is None else truth.dense(), alpha)
            assert_lexsort_top_k(row_ids, row_got, scores, k)
