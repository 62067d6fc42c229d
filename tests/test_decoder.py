from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicdec.decoder import (DecodingConfig, Hypothesis, PRESETS,
                              _prefix_dependence, _select_beam, coverage_of,
                              coverage_table, decode, plain_beam_search)
from logicdec.kb import FactBase, Vocabulary
from logicdec.lm import NgramScorer, ngram_train
from logicdec.prover import Domain, EvalContext, prove
from logicdec.rules import parse_program
from logicdec.tasks import lexical_rule_template, load_instances

from conftest import DATA

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
        {"max_groups": 0}, {"max_groups": -2},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodingConfig(**kwargs)


def cover(mask, word, concepts, facts):
    """Fold one token into a coverage mask, as the decoder does."""
    table = coverage_table(concepts, facts)
    return mask | table.get(facts.stems.class_of[facts.vocab.id_of(word)], 0)


class TestConstraintState:
    def test_stem_mate_sets_bit(self, toy_facts):
        v = toy_facts.vocab
        assert cover(0, "running", (v.id_of("run"),), toy_facts) == 1

    def test_unrelated_token_is_noop(self, toy_facts):
        v = toy_facts.vocab
        assert cover(0, "dog", (v.id_of("run"),), toy_facts) == 0

    def test_idempotent_and_monotone(self, toy_facts):
        v = toy_facts.vocab
        concepts = (v.id_of("run"), v.id_of("garden"))
        once = cover(0, "ran", concepts, toy_facts)
        assert cover(once, "runs", concepts, toy_facts) == once == 1
        assert cover(once, "dog", concepts, toy_facts) == 1

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

    def test_probe_as_proved_rule_forces_reproving(self, lexical_scorer, toy_facts,
                                                   sentinel_ids, monkeypatch):
        # the probe's argument is then the domain position, not a concept:
        # its truth vector changes with every prefix, not with coverage
        for body in ("Equal(x, y)", "Equal(y, x)"):
            program = parse_program(f"R(x) :- exists y in Prev, {body}")
            assert _prefix_dependence(program, "R") == "full"
        bos, eos = sentinel_ids
        config = replace(PRESETS["commongen"], max_length=10, bos_id=bos, eos_id=eos)
        ctx = EvalContext(facts=toy_facts, sets={"C": (toy_facts.vocab.id_of("garden"),)})
        memoised = decode(lexical_scorer, program, "R", ctx, config)
        from logicdec import decoder as D
        monkeypatch.setattr(D, "_prefix_dependence", lambda *a, **k: "full")
        fresh = decode(lexical_scorer, program, "R", ctx, config)
        assert [(h.tokens, h.logp) for h in memoised.hypotheses] == \
            [(h.tokens, h.logp) for h in fresh.hypotheses]


def _toy_program(rnd, n_rules: int) -> str:
    """A random program over C, P and Prev whose closure may call stem
    probes on concept elements, on other variables or not at all."""
    lines = ["Y0(x) :- exists y in Prev, Equal(x, y)",
             "Y1(x) :- exists y in Prev, Equal(y, x)"]
    callable_rules = [("Y0", 1), ("Y1", 1)]

    def expr(depth, variables, concept_vars):
        roll = rnd.random()
        if depth <= 0 or roll < 0.3:
            if roll < 0.2:
                name, arity = rnd.choice(callable_rules)
                pool = concept_vars if concept_vars and rnd.random() < 0.8 else variables
                return f"{name}({', '.join(rnd.choice(pool) for _ in range(arity))})"
            pred = rnd.choice(["Equal", "Edge", "W"])
            return f"{pred}({rnd.choice(variables)}, {rnd.choice(variables)})"
        if roll < 0.4:
            return f"~({expr(depth - 1, variables, concept_vars)})"
        if roll < 0.7:
            var = f"q{len(variables)}"
            set_name = rnd.choice(["C", "C", "C", "P", "Prev"])
            kind = rnd.choice(["exists", "forall"])
            inner = expr(depth - 1, variables + [var],
                         concept_vars + [var] if set_name == "C" else concept_vars)
            return f"({kind} {var} in {set_name}, {inner})"
        op = rnd.choice(["|", "^", "&"])
        return f" {op} ".join(f"({expr(depth - 1, variables, concept_vars)})"
                              for _ in range(rnd.randint(2, 3)))

    for i in range(n_rules):
        name = f"S{i}" if i + 1 < n_rules else "R"
        params = ["x", "z"][: 1 if name == "R" else rnd.randint(1, 2)]
        lines.append(f"{name}({', '.join(params)}) :- {expr(3, params, [])}")
        callable_rules.append((name, len(params)))
    if rnd.random() < 0.1:  # the proved rule is itself a probe
        lines[-1] = "R(x) :- exists y in Prev, Equal(x, y)"
    return "\n".join(lines)


class TestPrefixDependenceIsSound:
    """Whatever the analysis leaves out of the memo key cannot change the
    vocabulary truth vector."""

    @settings(max_examples=200, deadline=None)
    @given(rnd=st.randoms(use_true_random=True), n_rules=st.integers(1, 4))
    def test_memo_key_determines_the_truth_vector(self, toy_facts, rnd, n_rules):
        program = parse_program(_toy_program(rnd, n_rules))
        mode = _prefix_dependence(program, "R")
        assert mode in ("none", "coverage", "full")
        if mode == "full":
            return
        n = len(toy_facts.vocab)
        concepts = tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))
        persona = tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))
        prefixes = [[rnd.randrange(n) for _ in range(rnd.randint(1, 8))] for _ in range(2)]
        if mode == "coverage":
            # extend each prefix with stem-mates of the concepts only the
            # other covers, so that both end with the same coverage mask
            table = coverage_table(concepts, toy_facts)
            class_of = toy_facts.stems.class_of
            masks = [0, 0]
            for i, prefix in enumerate(prefixes):
                for tok in prefix:
                    masks[i] |= table.get(class_of[tok], 0)
            for i, prefix in enumerate(prefixes):
                for bit, cid in enumerate(concepts):
                    if masks[1 - i] >> bit & 1 and not masks[i] >> bit & 1:
                        mates = [t for t in range(n) if class_of[t] == class_of[cid]]
                        prefix.insert(rnd.randrange(len(prefix) + 1), rnd.choice(mates))
        truths = [prove(program, "R", Domain.vocabulary(toy_facts),
                        EvalContext(facts=toy_facts, sets={"C": concepts, "P": persona,
                                                           "Prev": tuple(prefix)}))
                  for prefix in prefixes]
        assert truths[0].tobytes() == truths[1].tobytes()


def _select_beam_oracle(candidates, config):
    """The three-pass grouped selection that ``_select_beam`` replaced, kept
    verbatim as its oracle."""
    def order(c):
        return (-c[0], c[2], c[1])

    groups: dict[int, list] = {}
    for c in candidates:
        groups.setdefault(c[3], []).append(c)
    for members in groups.values():
        members.sort(key=order)

    group_order = sorted(
        groups,
        key=lambda m: (-bin(m).count("1"), order(groups[m][0])),
    )
    if len(group_order) > config.max_groups:
        # keep the most-covered group plus the best-scoring remainder
        keep = set(group_order[:1])
        rest = sorted(group_order[1:], key=lambda m: order(groups[m][0]))
        keep.update(rest[: config.max_groups - 1])
        group_order = [m for m in group_order if m in keep]
        groups = {m: groups[m] for m in group_order}

    kept: dict[int, list] = {m: groups[m][: config.group_budget] for m in group_order}

    beam: list = []
    chosen = set()
    for m in group_order:
        if len(beam) >= config.beam_size:
            break
        head = kept[m][0]
        beam.append(head)
        chosen.add(id(head))

    leftovers = [c for m in group_order for c in kept[m] if id(c) not in chosen]
    leftovers.sort(key=order)
    for c in leftovers:
        if len(beam) >= config.beam_size:
            break
        beam.append(c)
        chosen.add(id(c))

    if len(beam) < config.beam_size:
        # grouping budgets left slack: top up from remaining survivors
        spare = [c for m in group_order for c in groups[m][config.group_budget:]]
        spare.sort(key=order)
        for c in spare:
            if len(beam) >= config.beam_size:
                break
            beam.append(c)

    beam.sort(key=order)
    return beam


# one candidate per (hypothesis, token), as in a decode step; scores drawn
# from a short list so that ties are common
_CANDIDATES = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 11)),
    st.tuples(st.one_of(st.sampled_from([-0.5, -1.0, -2.0]),
                        st.floats(-8.0, 0.0, allow_nan=False)),
              st.integers(0, 15)),
    min_size=1, max_size=40,
).map(lambda d: [(score, hi, tok, mask) for (hi, tok), (score, mask) in d.items()])


class TestBeamSelection:
    @settings(max_examples=400, deadline=None)
    @given(candidates=_CANDIDATES, beam_size=st.integers(1, 12),
           group_budget=st.integers(1, 5), max_groups=st.integers(1, 8))
    def test_matches_three_pass_oracle(self, candidates, beam_size, group_budget,
                                       max_groups):
        config = DecodingConfig(beam_size=beam_size, group_budget=group_budget,
                                max_groups=max_groups)
        assert _select_beam(list(candidates), config) == \
            _select_beam_oracle(list(candidates), config)

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

    def test_exact_tie_breaks_toward_smaller_token_id(self, lexical_scorer, toy_facts,
                                                      sentinel_ids):
        # "child" and "friend" are interchangeable in the lexical corpus, so
        # the two texts score exactly alike; the documented rule, not
        # rounding noise, must settle the order
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        inst = load_instances(DATA / "lexical20.jsonl")[0]
        assert inst.instance_id == "lex00"
        binding = lexical_rule_template(inst.concepts, toy_facts, gate="luk")
        config = replace(PRESETS["commongen"], max_length=16, bos_id=bos, eos_id=eos,
                         length_norm_power=1.0)
        first, second = decode(lexical_scorer, parse_program(binding.source), "R",
                               binding.ctx, config).hypotheses[:2]
        tail = "found the piano and the garden and the house".split()
        assert first.tokens == (bos, v.id_of("the"), v.id_of("child"),
                                *map(v.id_of, tail), eos)
        assert second.tokens == (bos, v.id_of("the"), v.id_of("friend"),
                                 *map(v.id_of, tail), eos)
        assert v.id_of("child") < v.id_of("friend")
        assert first.logp == second.logp

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
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"),)})
        config = DecodingConfig(beam_size=3, max_length=1, bos_id=bos, eos_id=eos)
        result = decode(lexical_scorer, None, None, ctx, config,
                        prompt=(bos, v.id_of("garden")))
        assert all(h.covered == 1 for h in result.hypotheses)


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

    def test_trace_shows_prediction_shift_with_hooks(self, toy_facts, sentinel_ids):
        # the hooked path traces the distribution before the prediction shift
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        cfg = TransformerConfig(vocab_size=len(v), n_layers=2, n_heads=2,
                                d_model=32, d_ff=64, max_len=32, seed=5)
        scorer = TransformerScorer(TinyTransformer(cfg))
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"), v.id_of("piano"))})
        for alpha3 in (24.0, 0.0):
            config = DecodingConfig(beam_size=3, alpha1=12.0, alpha2=24.0, alpha3=alpha3,
                                    max_length=4, bos_id=bos, eos_id=eos)
            result = decode(scorer, parse_program(LEXICAL_RULES), "R", ctx, config,
                            trace=True)
            differs = [step["top_before"] != step["top_after"] for step in result.trace]
            assert any(differs) if alpha3 else not any(differs)

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
