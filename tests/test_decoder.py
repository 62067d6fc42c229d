from dataclasses import replace

import pytest

from logicdec.decoder import (DecodingConfig, Hypothesis, PRESETS, _covered_mask,
                              _prefix_dependence, _select_beam, coverage_of,
                              decode, plain_beam_search, update_constraint_state)
from logicdec.kb import FactBase, Vocabulary
from logicdec.lm import NgramScorer, ngram_train
from logicdec.prover import EvalContext
from logicdec.rules import parse_program

LEXICAL_RULES = """
R(x) :- exists c in C, ~Y(c) & Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""


class TestPresets:
    def test_paper_parameter_sets(self):
        cg = PRESETS["commongen"]
        assert (cg.alpha1, cg.alpha2, cg.alpha3) == (12.0, 24.0, 24.0)
        assert cg.prune_ratio == 0.6 and cg.group_budget == 16 and cg.beam_size == 20
        pc = PRESETS["personachat"]
        assert (pc.alpha1, pc.alpha2, pc.alpha3) == (12.0, 24.0, 48.0)
        assert pc.prune_ratio == 0.4 and pc.group_budget == 8 and pc.beam_size == 10

    @pytest.mark.parametrize("kwargs", [
        {"beam_size": 0}, {"prune_ratio": 0.0}, {"prune_ratio": 1.5},
        {"group_budget": 0}, {"alpha3": -1.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodingConfig(**kwargs)


class TestConstraintState:
    def test_stem_mate_sets_bit(self, toy_facts):
        v = toy_facts.vocab
        concepts = (v.id_of("run"),)
        hyp = Hypothesis((0,), 0.0)
        out = update_constraint_state(hyp, v.id_of("running"), concepts, toy_facts)
        assert out.covered == 1

    def test_unrelated_token_is_noop(self, toy_facts):
        v = toy_facts.vocab
        hyp = Hypothesis((0,), 0.0, covered=0)
        out = update_constraint_state(hyp, v.id_of("dog"), (v.id_of("run"),), toy_facts)
        assert out.covered == 0

    def test_idempotent_and_monotone(self, toy_facts):
        v = toy_facts.vocab
        concepts = (v.id_of("run"), v.id_of("garden"))
        hyp = Hypothesis((0,), 0.0)
        hyp = update_constraint_state(hyp, v.id_of("ran"), concepts, toy_facts)
        once = hyp.covered
        hyp = update_constraint_state(hyp, v.id_of("runs"), concepts, toy_facts)
        assert hyp.covered == once == 1

    def test_coverage_fractions(self):
        assert coverage_of(Hypothesis((0,), 0.0, covered=0b1111), range(4)) == 1.0
        assert coverage_of(Hypothesis((0,), 0.0, covered=0), range(4)) == 0.0
        assert coverage_of(Hypothesis((0,), 0.0, covered=0b0111), range(4)) == 0.75
        assert coverage_of(Hypothesis((0,), 0.0), ()) == 1.0


class TestPrefixDependence:
    def test_lexical_templates_are_coverage_determined(self):
        assert _prefix_dependence(parse_program(LEXICAL_RULES), "R") == "coverage"

    def test_dialogue_rules_never_read_the_prefix(self):
        program = parse_program("""
R(x) :- Persona(x) | Common(x)
Persona(x) :- exists p in P, Equal(x, p)
Common(x) :- (exists p in P, Edge(x, p)) ^ (exists u in U, Edge(x, u))
""")
        assert _prefix_dependence(program, "R") == "none"

    def test_direct_prefix_use_forces_reproving(self):
        program = parse_program("R(x) :- exists y in Prev, Edge(x, y)")
        assert _prefix_dependence(program, "R") == "full"

    def test_probe_applied_to_head_variable_forces_reproving(self):
        program = parse_program("""
R(x) :- Y(x)
Y(x) :- exists y in Prev, Equal(x, y)
""")
        assert _prefix_dependence(program, "R") == "full"


class TestBeamSelection:
    def test_per_group_budget_before_fill(self):
        # two groups, both with more than k survivors, beam 2k: exactly k
        # survive from each
        config = DecodingConfig(beam_size=4, group_budget=2, prune_ratio=1e-9)
        candidates = []
        for i, score in enumerate((-1.0, -2.0, -3.0, -4.0)):
            candidates.append((score, 0, 10 + i, 0b00))
        for i, score in enumerate((-1.5, -2.5, -3.5, -4.5)):
            candidates.append((score, 0, 20 + i, 0b01))
        beam = _select_beam(candidates, config)
        masks = [c[3] for c in beam]
        assert masks.count(0b00) == 2 and masks.count(0b01) == 2

    def test_most_covered_group_always_represented(self):
        config = DecodingConfig(beam_size=2, group_budget=2, prune_ratio=1e-9)
        candidates = [
            (-0.1, 0, 1, 0b00), (-0.2, 0, 2, 0b00), (-0.3, 0, 3, 0b00),
            (-9.0, 0, 4, 0b11),   # weak but maximally covered
        ]
        beam = _select_beam(candidates, config)
        assert any(c[3] == 0b11 for c in beam)

    def test_single_group_fills_whole_beam(self):
        config = DecodingConfig(beam_size=4, group_budget=2, prune_ratio=1e-9)
        candidates = [(-float(i), 0, i, 0) for i in range(1, 8)]
        beam = _select_beam(candidates, config)
        assert [c[2] for c in beam] == [1, 2, 3, 4]


def bigram_world():
    """Hand-enumerable two-step search space.

    Vocabulary: <s> </s> a c.  From <s>: a 0.7, c 0.3; both then end.  The
    unconstrained argmax path is "a"; boosting c at alpha3=24 flips it:
    0.3 * exp(24 * 0.3 * 1) > 0.7.
    """
    vocab = Vocabulary(["<s>", "</s>", "a", "c"])
    facts = FactBase.from_edges(vocab, [], mode="hard")
    corpus = [[0, 2, 1]] * 7 + [[0, 3, 1]] * 3
    lm = ngram_train(corpus, order=2, vocab_size=4)
    return vocab, facts, NgramScorer(lm)


class TestDecode:
    def test_boost_flips_argmax_toward_concept(self):
        vocab, facts, scorer = bigram_world()
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=facts, sets={"C": (3,)})
        config = DecodingConfig(beam_size=2, alpha3=24.0, prune_ratio=1e-9,
                                max_length=4, bos_id=0, eos_id=1)
        constrained = decode(scorer, program, "R", ctx, config)
        unconstrained = plain_beam_search(scorer, 2, 4, bos_id=0, eos_id=1)
        assert constrained.best.tokens == (0, 3, 1)   # <s> c </s>
        assert unconstrained.best.tokens == (0, 2, 1)  # <s> a </s>
        assert coverage_of(constrained.best, (3,)) == 1.0

    def test_degenerate_config_equals_plain_beam_search(self, lexical_scorer, sentinel_ids):
        bos, eos = sentinel_ids
        config = DecodingConfig(beam_size=5, alpha1=0, alpha2=0, alpha3=0,
                                prune_ratio=1e-12, max_length=12,
                                bos_id=bos, eos_id=eos)
        a = decode(lexical_scorer, None, None, None, config)
        b = plain_beam_search(lexical_scorer, 5, 12, bos_id=bos, eos_id=eos)
        assert [h.tokens for h in a.hypotheses] == [h.tokens for h in b.hypotheses]
        assert [h.logp for h in a.hypotheses] == [h.logp for h in b.hypotheses]

    def test_scores_monotone_along_ancestry(self, lexical_scorer, toy_facts, sentinel_ids):
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"),)})
        config = DecodingConfig(beam_size=4, alpha3=24.0, prune_ratio=1e-9,
                                max_length=10, bos_id=bos, eos_id=eos)
        result = decode(lexical_scorer, program, "R", ctx, config)
        assert result.best.logp < 0.0

    def test_unfinished_run_is_flagged(self, lexical_scorer, sentinel_ids):
        bos, _ = sentinel_ids
        config = DecodingConfig(beam_size=3, max_length=4, bos_id=bos, eos_id=None)
        result = decode(lexical_scorer, None, None, None, config)
        assert not result.completed
        assert all(not h.finished for h in result.hypotheses)

    def test_vocabulary_mismatch_rejected(self, toy_facts):
        lm = ngram_train([[0, 1]], order=2, vocab_size=3)
        ctx = EvalContext(facts=toy_facts, sets={})
        with pytest.raises(ValueError, match="does not match"):
            decode(NgramScorer(lm), parse_program(LEXICAL_RULES), "R", ctx,
                   DecodingConfig(bos_id=0))

    def test_determinism(self, lexical_scorer, toy_facts, sentinel_ids):
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        config = replace(PRESETS["commongen"], max_length=12, bos_id=bos, eos_id=eos)
        runs = []
        for _ in range(2):
            ctx = EvalContext(facts=toy_facts,
                              sets={"C": (v.id_of("garden"), v.id_of("piano"))})
            result = decode(lexical_scorer, program, "R", ctx, config)
            runs.append([(h.tokens, h.logp) for h in result.hypotheses])
        assert runs[0] == runs[1]

    def test_trace_records_shift(self, lexical_scorer, toy_facts, sentinel_ids):
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"),)})
        config = DecodingConfig(beam_size=3, alpha3=24.0, prune_ratio=1e-9,
                                max_length=6, bos_id=bos, eos_id=eos)
        result = decode(lexical_scorer, program, "R", ctx, config, trace=True)
        assert result.trace
        step = result.trace[0]
        assert len(step["top_before"]) == 5 and len(step["top_after"]) == 5

    def test_prompt_coverage_counts(self, lexical_scorer, toy_facts, sentinel_ids):
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        concepts = (v.id_of("garden"),)
        mask = _covered_mask((bos, v.id_of("garden")), concepts, toy_facts)
        assert mask == 1


class TestTransformerIntegration:
    def test_decode_drives_attention_hooks(self, toy_facts, sentinel_ids):
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        cfg = TransformerConfig(vocab_size=len(v), n_layers=2, n_heads=2,
                                d_model=32, d_ff=64, max_len=32, seed=5)
        scorer = TransformerScorer(TinyTransformer(cfg))
        program = parse_program(LEXICAL_RULES)
        concepts = (v.id_of("garden"), v.id_of("piano"))

        def run(alpha1, alpha2, alpha3):
            ctx = EvalContext(facts=toy_facts, sets={"C": concepts})
            config = DecodingConfig(beam_size=3, alpha1=alpha1, alpha2=alpha2,
                                    alpha3=alpha3, prune_ratio=1e-9,
                                    max_length=6, bos_id=bos, eos_id=eos)
            return decode(scorer, program, "R", ctx, config)

        hooked = run(12.0, 24.0, 24.0)
        plain = run(0.0, 0.0, 0.0)
        assert hooked.hypotheses and plain.hypotheses
        # same config twice is bitwise deterministic
        again = run(12.0, 24.0, 24.0)
        assert [h.tokens for h in hooked.hypotheses] == \
            [h.tokens for h in again.hypotheses]
        assert [h.logp for h in hooked.hypotheses] == \
            [h.logp for h in again.hypotheses]
        # the attention+prediction shifts actually change the search
        assert [h.tokens for h in hooked.hypotheses] != \
            [h.tokens for h in plain.hypotheses] or \
            hooked.best.logp != plain.best.logp

    def test_hooked_decode_proves_only_the_vocabulary(self, toy_facts, sentinel_ids,
                                                      monkeypatch):
        from logicdec import decoder as D
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        cfg = TransformerConfig(vocab_size=len(v), n_layers=2, n_heads=2,
                                d_model=32, d_ff=64, max_len=32, seed=5)
        kinds = []

        def counting_prove(program, rule, domain, ctx):
            kinds.append(domain.kind)
            return original(program, rule, domain, ctx)

        original = D.prove
        monkeypatch.setattr(D, "prove", counting_prove)
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"), v.id_of("piano"))})
        config = DecodingConfig(beam_size=3, alpha1=12.0, alpha2=24.0, alpha3=24.0,
                                max_length=6, bos_id=bos, eos_id=eos)
        result = decode(TransformerScorer(TinyTransformer(cfg)), parse_program(LEXICAL_RULES),
                        "R", ctx, config)
        assert result.hypotheses
        assert kinds and set(kinds) == {"vocab"}

    def test_attention_only_shifts_change_scores(self, toy_facts, sentinel_ids):
        # alpha3 = 0: no prediction shift, yet attention shifts still steer
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        cfg = TransformerConfig(vocab_size=len(v), n_layers=2, n_heads=2,
                                d_model=32, d_ff=64, max_len=32, seed=5)
        scorer = TransformerScorer(TinyTransformer(cfg))
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"),)})
        config = DecodingConfig(beam_size=2, alpha1=30.0, alpha2=60.0, alpha3=0.0,
                                prune_ratio=1e-9, max_length=4,
                                bos_id=bos, eos_id=eos)
        shifted = decode(scorer, program, "R", ctx, config)
        ctx2 = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"),)})
        config2 = DecodingConfig(beam_size=2, alpha1=0.0, alpha2=0.0, alpha3=0.0,
                                 prune_ratio=1e-9, max_length=4,
                                 bos_id=bos, eos_id=eos)
        baseline = decode(scorer, program, "R", ctx2, config2)
        assert shifted.best.logp != baseline.best.logp


class TestGroupCap:
    def test_live_groups_bounded_by_cap(self):
        config = DecodingConfig(beam_size=8, group_budget=2, max_groups=3,
                                prune_ratio=1e-9)
        candidates = []
        for g in range(6):  # six distinct masks, more than the cap
            candidates.append((-1.0 - g * 0.1, 0, 50 + g, 1 << g))
            candidates.append((-2.0 - g * 0.1, 0, 60 + g, 1 << g))
        beam = _select_beam(candidates, config)
        assert len({c[3] for c in beam}) <= config.max_groups


class TestMemoisedTruthEqualsFresh:
    def test_coverage_memo_matches_full_reproving(self, lexical_scorer, toy_facts,
                                                  sentinel_ids):
        # same decode through the memoised path and a rule variant that the
        # analysis cannot memoise (forced "full") must agree exactly
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=toy_facts,
                          sets={"C": (v.id_of("garden"), v.id_of("river"))})
        config = replace(PRESETS["commongen"], max_length=10, bos_id=bos, eos_id=eos)
        memoised = decode(lexical_scorer, program, "R", ctx, config)

        from logicdec import decoder as D
        original = D._prefix_dependence
        D._prefix_dependence = lambda *a, **k: "full"
        try:
            ctx2 = EvalContext(facts=toy_facts,
                               sets={"C": (v.id_of("garden"), v.id_of("river"))})
            fresh = decode(lexical_scorer, program, "R", ctx2, config)
        finally:
            D._prefix_dependence = original
        assert [h.tokens for h in memoised.hypotheses] == \
            [h.tokens for h in fresh.hypotheses]
        assert memoised.best.logp == pytest.approx(fresh.best.logp, abs=1e-12)
