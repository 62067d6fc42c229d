"""One token-id rule at every boundary that takes ids from a caller: an id
is a Python or numpy integer, not a bool, in [0, V).  Each boundary refuses
any other value with ``lm._check_token``'s ``ValueError``, which names the
value and what the id is."""

import re

import numpy as np
import pytest

from logicdec import (DecodingConfig, Domain, EvalContext, TinyTransformer, TransformerConfig,
                      TransformerScorer, coverage_table, decode, parse_program,
                      plain_beam_search, prove, prove_scalar)

V = 75  # the toy vocabulary
PROGRAM = parse_program("R(x) :- exists c in C, Edge(x, c) | Equal(x, c)")
NOT_AN_INTEGER, OUTSIDE = "is not an integer", rf"outside vocabulary \[0, {V}\)"
BAD = [(True, NOT_AN_INTEGER), (np.bool_(False), NOT_AN_INTEGER), (1.5, NOT_AN_INTEGER),
       (2.0, NOT_AN_INTEGER), (-1, OUTSIDE), (V, OUTSIDE)]


def _ctx(facts, concepts=(3,)):
    return EvalContext(facts, {"C": concepts})


def _transformer():
    return TransformerScorer(TinyTransformer(TransformerConfig(
        vocab_size=V, n_layers=1, n_heads=1, d_model=4, d_ff=4)))


# boundary -> (what the message calls the id, a call that hands it ``bad``)
BOUNDARIES = {
    "coverage_table": ("set 'C' binds token id",
                       lambda f, s, bad: coverage_table((3, bad), f)),
    "decode-C": ("set 'C' binds token id", lambda f, s, bad: decode(
        s, PROGRAM, "R", _ctx(f, (3, bad)), DecodingConfig(alpha3=1.0, max_length=1))),
    "decode-bos": ("BOS id", lambda f, s, bad: decode(
        s, None, None, None, DecodingConfig(max_length=1, bos_id=bad))),
    "decode-eos": ("EOS id", lambda f, s, bad: decode(
        s, None, None, None, DecodingConfig(max_length=1, eos_id=bad))),
    "plain-bos": ("BOS id", lambda f, s, bad: plain_beam_search(s, 2, 1, bos_id=bad)),
    "plain-eos": ("EOS id", lambda f, s, bad: plain_beam_search(s, 2, 1, eos_id=bad)),
    "prove-domain": ("domain token id", lambda f, s, bad: prove(
        PROGRAM, "R", Domain.targets([3, bad]), _ctx(f))),
    "prove-set": ("set 'C' binds token id", lambda f, s, bad: prove(
        PROGRAM, "R", Domain.vocabulary(f), _ctx(f, (3, bad)))),
    "prove_scalar": ("token id", lambda f, s, bad: prove_scalar(PROGRAM, "R", bad, _ctx(f))),
    "prove_scalar-set": ("set 'C' binds token id", lambda f, s, bad: prove_scalar(
        PROGRAM, "R", 4, _ctx(f, (3, bad)))),
    "edge_weight": ("token id", lambda f, s, bad: f.edge_weight(3, bad)),
    "same_stem-a": ("token id", lambda f, s, bad: f.same_stem(bad, 3)),
    "same_stem-b": ("token id", lambda f, s, bad: f.same_stem(3, bad)),
    "vocab-token": ("token id", lambda f, s, bad: f.vocab.token(bad)),
    "vocab-surface": ("token id", lambda f, s, bad: f.vocab.surface(bad)),
    "ngram-step": ("token id", lambda f, s, bad: s.step(s.begin_session(), bad)),
    "ngram-step_batch": ("token id", lambda f, s, bad: s.step_batch(
        [s.begin_session(), s.begin_session()], [3, bad])),
    "ngram-begin_session": ("target id", lambda f, s, bad: s.begin_session([3, bad])),
    "transformer-step": ("token id", lambda f, s, bad: (t := _transformer()).step(
        t.begin_session(), bad)),
    "transformer-step_batch": ("token id", lambda f, s, bad: (t := _transformer()).step_batch(
        [t.begin_session(), t.begin_session()], [3, bad])),
    "transformer-begin_session": ("target id", lambda f, s, bad: _transformer().begin_session(
        [3, bad])),
}


@pytest.mark.parametrize("bad, problem", BAD, ids=["True", "numpy-False", "1.5", "2.0", "-1", "V"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_refuses_a_bad_id_by_name(toy_facts, lexical_scorer, boundary, bad,
                                                   problem):
    assert len(toy_facts.vocab) == lexical_scorer.vocab_size == V
    what, call = BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} {re.escape(repr(bad))} {problem}$"):
        call(toy_facts, lexical_scorer, bad)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_takes_numpy_integers(toy_facts, lexical_scorer, boundary):
    """The same calls with a valid id, a numpy integer, run."""
    BOUNDARIES[boundary][1](toy_facts, lexical_scorer, np.int64(4))
