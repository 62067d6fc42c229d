import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from logicdec.decision import SCORE_FLOOR, decide, pre_activation, softmax


def normalized(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr / arr.sum()


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
