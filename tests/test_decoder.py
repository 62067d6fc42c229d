import json
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicdec.decision import FULL_RANK_MAX_V, pre_activation
from logicdec import decoder, prover as P
from logicdec.decoder import (DecodingConfig, Hypothesis, PRESETS, _fixed_by_coverage,
                              _select_beam, coverage_of, coverage_table, decode,
                              plain_beam_search)
from logicdec.kb import FactBase, Vocabulary
from logicdec.lm import NgramScorer, Scorer, ngram_train
from logicdec.prover import Domain, EvalContext, prove, prove_scalar
from logicdec.rules import parse_program
from logicdec.tasks import (dialogue_rule_template, lexical_rule_template, load_instances,
                            template_text)

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
        {"alpha1": float("nan")}, {"alpha2": float("inf")},
        {"alpha3": float("nan")}, {"alpha3": float("inf")},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodingConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_length": -1}, "max length"),
        ({"length_norm_power": float("nan")}, "length-normalisation"),
        ({"length_norm_power": float("inf")}, "length-normalisation"),
        ({"length_norm_power": float("-inf")}, "length-normalisation"),
    ])
    def test_length_settings_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DecodingConfig(**kwargs)
        assert DecodingConfig(max_length=0, length_norm_power=0.0).max_length == 0


def cover(mask, word, concepts, facts):
    """Fold one token into a coverage mask, as the decoder does."""
    table = coverage_table(concepts, facts)
    return mask | table[facts.stems.class_of[facts.vocab.id_of(word)]]


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


def reprove_every_step(monkeypatch, rule="R"):
    """Unflag the proved rule in ``decode``, so that its truth is proved
    afresh at every hypothesis step."""
    from logicdec import decoder as D
    monkeypatch.setattr(D, "_fixed_by_coverage",
                        lambda program: {**_fixed_by_coverage(program), rule: False})


class TestPrefixDependence:
    def test_lexical_templates_are_coverage_determined(self):
        assert _fixed_by_coverage(parse_program(LEXICAL_RULES))["R"]

    def test_dialogue_rules_never_read_the_prefix(self):
        program = parse_program("""
R(x) :- Persona(x) | Common(x)
Persona(x) :- exists p in P, Equal(x, p)
Common(x) :- (exists p in P, Edge(x, p)) ^ (exists u in U, Edge(x, u))
""")
        assert "Prev" not in program.reads["R"] and _fixed_by_coverage(program)["R"]

    @pytest.mark.parametrize("name, classes", [
        ("commongen_hard", {"R": True, "Rel": True, "Y": False}),
        ("personachat", {"R": True, "Persona": True, "Common": True}),
    ])
    def test_shipped_template_classes(self, name, classes):
        assert _fixed_by_coverage(parse_program(template_text(name))) == classes

    def test_direct_prefix_use_forces_reproving(self):
        program = parse_program("R(x) :- exists y in Prev, Edge(x, y)")
        assert not _fixed_by_coverage(program)["R"]

    def test_probe_applied_to_head_variable_forces_reproving(self):
        program = parse_program("""
R(x) :- Y(x)
Y(x) :- exists y in Prev, Equal(x, y)
""")
        assert not _fixed_by_coverage(program)["R"]

    def test_probe_as_proved_rule_forces_reproving(self, lexical_scorer, toy_facts,
                                                   sentinel_ids, monkeypatch):
        # the probe's argument is then the domain position, not a concept:
        # its truth vector changes with every prefix, not with coverage
        for body in ("Equal(x, y)", "Equal(y, x)"):
            program = parse_program(f"R(x) :- exists y in Prev, {body}")
            assert not _fixed_by_coverage(program)["R"]
        bos, eos = sentinel_ids
        config = replace(PRESETS["commongen"], max_length=10, bos_id=bos, eos_id=eos)
        ctx = EvalContext(facts=toy_facts, sets={"C": (toy_facts.vocab.id_of("garden"),)})
        memoised = decode(lexical_scorer, program, "R", ctx, config)
        reprove_every_step(monkeypatch)
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
            pred = rnd.choice(["Equal", "Edge"])
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
    """Whatever the memo keys leave out cannot change the vocabulary truth
    vector of any one-parameter rule: the truth of a rule that does not read
    ``Prev`` under any two prefixes, of a rule flagged as fixed by coverage
    under two prefixes of one coverage mask."""

    @settings(max_examples=200, deadline=None)
    @given(rnd=st.randoms(use_true_random=True), n_rules=st.integers(1, 4))
    def test_memo_key_determines_the_truth_vector(self, toy_facts, rnd, n_rules):
        program = parse_program(_toy_program(rnd, n_rules))
        fixed = _fixed_by_coverage(program)
        assert fixed.keys() == program.rules.keys()
        n = len(toy_facts.vocab)
        concepts = tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))
        persona = tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))
        prefixes = [[rnd.randrange(n) for _ in range(rnd.randint(1, 8))] for _ in range(2)]
        unary = [name for name in program.order if len(program.rule(name).params) == 1]

        def assert_same_truth(names):
            for name in names:
                truths = [prove(program, name, Domain.vocabulary(toy_facts),
                                EvalContext(facts=toy_facts,
                                            sets={"C": concepts, "P": persona,
                                                  "Prev": tuple(prefix)}))
                          for prefix in prefixes]
                assert truths[0].dense().tobytes() == truths[1].dense().tobytes(), name

        # the prefixes are unrelated
        assert_same_truth([name for name in unary if "Prev" not in program.reads[name]])
        # extend each prefix with stem-mates of the concepts only the other
        # covers, so that both end with the same coverage mask
        table = coverage_table(concepts, toy_facts)
        class_of = toy_facts.stems.class_of
        masks = [0, 0]
        for i, prefix in enumerate(prefixes):
            for tok in prefix:
                masks[i] |= table[class_of[tok]]
        for i, prefix in enumerate(prefixes):
            for bit, cid in enumerate(concepts):
                if masks[1 - i] >> bit & 1 and not masks[i] >> bit & 1:
                    mates = [t for t in range(n) if class_of[t] == class_of[cid]]
                    prefix.insert(rnd.randrange(len(prefix) + 1), rnd.choice(mates))
        assert_same_truth([name for name in unary if fixed[name]])


class TestCarriedProverMemo:
    """The decoder gives every prove of a decode one prover memo; nothing it
    holds may change a truth."""

    @settings(max_examples=100, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n_rules=st.integers(1, 4))
    def test_carried_memo_equals_fresh_proving(self, toy_facts, rnd, n_rules):
        program = parse_program(_toy_program(rnd, n_rules))
        vocab = Domain.vocabulary(toy_facts)
        n = len(toy_facts.vocab)
        sets = {"C": tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3))),
                "P": tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))}
        memo: dict = {}
        for _ in range(rnd.randint(2, 5)):
            sets["Prev"] = tuple(rnd.randrange(n) for _ in range(rnd.randint(1, 8)))
            carried = prove(program, "R", vocab, EvalContext(toy_facts, sets, memo)).dense()
            ctx = EvalContext(toy_facts, dict(sets))
            assert carried.tobytes() == prove(program, "R", vocab, ctx).dense().tobytes()
            scalar = np.array([prove_scalar(program, "R", w, ctx) for w in range(n)])
            assert np.abs(carried - scalar).max() <= 1e-9

    def test_prefix_free_rule_is_proved_once_per_argument(self, lexical_scorer, toy_facts,
                                                          sentinel_ids, monkeypatch):
        bos, eos = sentinel_ids
        inst = load_instances(DATA / "lexical20.jsonl")[0]
        binding = lexical_rule_template(inst.concepts, toy_facts)
        program = parse_program(binding.source)
        inserted = Counter()

        class CountingMemo(dict):  # a rule is evaluated only on a memo miss
            def __setitem__(self, key, value):
                inserted[key] += 1
                super().__setitem__(key, value)

        memo, original = CountingMemo(), decoder.prove

        def counting(program_, rule, domain, ctx):
            return original(program_, rule, domain, EvalContext(ctx.facts, ctx.sets, memo))

        monkeypatch.setattr(decoder, "prove", counting)
        config = replace(PRESETS["commongen"], max_length=16, bos_id=bos, eos_id=eos)
        decode(lexical_scorer, program, "R", binding.ctx, config)
        concepts = set(binding.ctx.sets["C"])
        assert set(inserted.values()) == {1}
        assert len(concepts) > 1 and sum(name == "R" for name, *_ in inserted) > 1
        assert sorted(args[1] for name, args, *_ in inserted if name == "Rel") == sorted(concepts)

    @pytest.mark.parametrize("source, kept", [
        ("R(x) :- exists y in Prev, Edge(x, y)", set()), (LEXICAL_RULES, {"Rel"})],
        ids=["full", "template"])
    def test_no_prev_reading_entry_outlives_a_decode(self, lexical_scorer, toy_facts,
                                                      sentinel_ids, monkeypatch, source, kept):
        # an entry keyed on a prefix is never read by a later step
        from logicdec import decoder as D
        memos = {}
        original = D.prove

        def capturing(program, rule, domain, ctx):
            memos[id(ctx.memo)] = ctx.memo
            return original(program, rule, domain, ctx)

        monkeypatch.setattr(D, "prove", capturing)
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"), v.id_of("river"))})
        config = replace(PRESETS["commongen"], max_length=8, bos_id=bos, eos_id=eos)
        assert decode(lexical_scorer, parse_program(source), "R", ctx, config).steps > 1
        (memo,) = memos.values()
        assert {key[0] for key in memo} == kept

    def test_carried_vectors_reject_in_place_writes(self, toy_facts):
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        memo: dict = {}
        ctx = EvalContext(toy_facts, {"C": (v.id_of("garden"),), "Prev": (v.id_of("the"),)},
                          memo)
        prove(program, "R", Domain.vocabulary(toy_facts), ctx)
        assert {key[0] for key in memo} == {"R", "Rel", "Y"}
        truths = [truth for truth in memo.values() if isinstance(truth, P.Truth)]
        assert len(truths) == 2  # R's and Rel's; Y of a concept is a scalar
        for vector in (array for truth in truths for array in (truth.ids, truth.values)):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                np.add(vector, 1, out=vector)


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
              # masks across the uint64 range, few enough that groups fill
              st.one_of(st.integers(0, 15),
                        st.sampled_from([2**32, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]))),
    min_size=1, max_size=40,
).map(lambda d: [(score, hi, tok, mask) for (hi, tok), (score, mask) in d.items()])


def select_beam(candidates, config):
    """``_select_beam`` over (score, hyp_index, token, mask) tuples: the
    tuples chosen, in the order returned."""
    score, parent, token, mask = (np.array(column, dtype=dtype) for column, dtype in
                                  zip(zip(*candidates), (float, np.int64, np.int64, np.uint64)))
    return [candidates[i] for i in _select_beam(score, token, parent, mask, config)]


class TestBeamSelection:
    @settings(max_examples=400, deadline=None)
    @given(candidates=_CANDIDATES, beam_size=st.integers(1, 12),
           group_budget=st.integers(1, 5))
    def test_matches_three_pass_oracle(self, candidates, beam_size, group_budget):
        config = DecodingConfig(beam_size=beam_size, group_budget=group_budget)
        assert select_beam(list(candidates), config) == \
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
        beam = select_beam(candidates, config)
        masks = [c[3] for c in beam]
        assert masks.count(0b00) == 2 and masks.count(0b01) == 2

    def test_most_covered_group_always_represented(self):
        config = DecodingConfig(beam_size=2, group_budget=2, prune_ratio=1e-9)
        candidates = [
            (-0.1, 0, 1, 0b00), (-0.2, 0, 2, 0b00), (-0.3, 0, 3, 0b00),
            (-9.0, 0, 4, 0b11),   # weak but maximally covered
        ]
        beam = select_beam(candidates, config)
        assert any(c[3] == 0b11 for c in beam)

    def test_every_group_competes_for_the_beam(self):
        # 70 groups over 7 concept bits: all 7, one of 6, and 68 of 4 or 3.
        # The 6-concept group's head scores worst of all candidates, yet it
        # outranks every group of fewer concepts.
        masks = [0b1111111] + [m for m in range(1 << 7) if m.bit_count() == 4] \
            + [m for m in range(1 << 7) if m.bit_count() == 3][:33] + [0b0111111]
        assert len(set(masks)) == 70
        candidates = [(-1.0 - 0.01 * i, 0, i, m) for i, m in enumerate(masks)]
        beam = select_beam(candidates, DecodingConfig(beam_size=4, group_budget=1))
        assert candidates[-1] in beam
        assert sorted((c[3].bit_count() for c in beam), reverse=True) == [7, 6, 4, 4]

    def test_single_group_fills_whole_beam(self):
        config = DecodingConfig(beam_size=4, group_budget=2, prune_ratio=1e-9)
        candidates = [(-float(i), 0, i, 0) for i in range(1, 8)]
        beam = select_beam(candidates, config)
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

    @pytest.mark.parametrize("bos", [-1, 4])
    def test_bos_ids_outside_the_vocabulary_are_rejected(self, bos):
        vocab, facts, scorer = bigram_world()  # V = 4
        ctx = EvalContext(facts=facts, sets={"C": (3,)})
        config = DecodingConfig(beam_size=2, alpha3=24.0, max_length=2, bos_id=bos)
        message = rf"BOS id {bos} outside vocabulary \[0, 4\)"
        for program, rule, context in ((None, None, None),
                                       (parse_program(LEXICAL_RULES), "R", ctx)):
            with pytest.raises(ValueError, match=message):
                decode(scorer, program, rule, context, config)
        with pytest.raises(ValueError, match=message):
            plain_beam_search(scorer, 2, 2, bos_id=bos)

    @pytest.mark.parametrize("beam_size, max_length, length_norm_power, message", [
        pytest.param(0, 2, 0.7, "beam size", id="0-2-beam size"),
        pytest.param(-1, 3, 0.7, "beam size", id="-1-3-beam size"),
        pytest.param(2, -1, 0.7, "max length", id="2--1-max length"),
        pytest.param(2, 3, float("nan"), "length-normalisation", id="nan-length-norm"),
        pytest.param(2, 3, float("inf"), "length-normalisation", id="inf-length-norm")])
    def test_plain_beam_search_refuses_what_decoding_config_refuses(
            self, beam_size, max_length, length_norm_power, message):
        with pytest.raises(ValueError, match=message):
            DecodingConfig(beam_size=beam_size, max_length=max_length,
                           length_norm_power=length_norm_power)
        scorer = TableScorer(table_of([[1, 2, 3, 4, 5]] * 5))
        with pytest.raises(ValueError, match=message):
            plain_beam_search(scorer, beam_size, max_length,
                              length_norm_power=length_norm_power)
        assert scorer.calls == 0

    def test_degenerate_config_equals_plain_beam_search(self, lexical_scorer, sentinel_ids):
        bos, eos = sentinel_ids
        config = DecodingConfig(beam_size=5, alpha1=0, alpha2=0, alpha3=0,
                                prune_ratio=1e-12, max_length=12,
                                bos_id=bos, eos_id=eos)
        a = decode(lexical_scorer, None, None, None, config)
        b = plain_beam_search(lexical_scorer, 5, 12, bos_id=bos, eos_id=eos)
        assert [h.tokens for h in a.hypotheses] == [h.tokens for h in b.hypotheses]
        assert [h.logp for h in a.hypotheses] == [h.logp for h in b.hypotheses]

    def test_plain_beam_search_ranks_like_the_degenerate_preset(self):
        # BOS = 0, EOS = 1: (0, 1) scores log 0.4 and (0, 2, 1) log 0.6 + log 0.3,
        # so power 0.7 ranks the short text first and power 1.0 the long one
        scorer = TableScorer(table_of([[0, 4, 6], [1, 1, 1], [0, 3, 7]]))
        bests = {power: plain_beam_search(scorer, 20, 2, eos_id=1,
                                          length_norm_power=power).best.tokens
                 for power in (0.7, 1.0)}
        assert bests == {0.7: (0, 1), 1.0: (0, 2, 1)}
        preset = PRESETS["commongen"]
        config = replace(preset, alpha1=0.0, alpha2=0.0, alpha3=0.0, prune_ratio=1e-12,
                         group_budget=preset.beam_size, max_length=2, eos_id=1)
        constrained = decode(scorer, None, None, None, config)
        plain = plain_beam_search(scorer, preset.beam_size, 2, eos_id=1)
        assert constrained.best.tokens == plain.best.tokens == bests[1.0]

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
        binding = lexical_rule_template(inst.concepts, toy_facts)
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


class _TableSession:
    def __init__(self, tokens=()):
        self.tokens = list(tokens)

    def clone(self):
        return _TableSession(self.tokens)


class TableScorer(Scorer):
    """The next-token distribution is the table's row for the last token
    consumed; ``calls`` counts the tokens consumed."""

    def __init__(self, table):
        self.table = table
        self.vocab_size = table.shape[1]
        self.calls = 0

    def begin_session(self, targets=()):
        return _TableSession()

    def step(self, session, token, hooks=None):
        self.calls += 1
        session.tokens.append(token)
        return self.table[token].copy()


def table_of(rows) -> np.ndarray:
    table = np.array(rows, dtype=np.float64)
    return table / table.sum(axis=1, keepdims=True)


# weights drawn from a short list, so that rows hold zero-probability
# tokens and exact ties
_TABLES = st.integers(2, 6).flatmap(lambda v: st.lists(
    st.lists(st.sampled_from([0, 0, 1, 1, 2, 5]), min_size=v, max_size=v).filter(any),
    min_size=v, max_size=v))


# both unconstrained decoders, with a beam of three, for ``n`` steps
_BOTH_DECODERS = pytest.mark.parametrize("search", [
    lambda scorer, n: decode(scorer, None, None, None, DecodingConfig(beam_size=3, max_length=n)),
    lambda scorer, n: plain_beam_search(scorer, 3, n)], ids=["decode", "plain"])


class TestDecodeLoop:
    @settings(max_examples=300, deadline=None)
    @given(rows=_TABLES, beam_size=st.integers(1, 8), group_budget=st.integers(1, 4),
           max_length=st.integers(1, 6), data=st.data())
    def test_unconstrained_decode_equals_plain_beam_search(self, rows, beam_size,
                                                           group_budget, max_length,
                                                           data):
        table = table_of(rows)
        v = len(table)
        bos = data.draw(st.integers(0, v - 1))
        eos = data.draw(st.none() | st.integers(0, v - 1))
        config = DecodingConfig(beam_size=beam_size, group_budget=group_budget,
                                prune_ratio=1e-300, max_length=max_length, bos_id=bos,
                                eos_id=eos)
        got = decode(TableScorer(table), None, None, None, config)
        want = plain_beam_search(TableScorer(table), beam_size, max_length, bos_id=bos,
                                 eos_id=eos)
        assert [h.tokens for h in got.hypotheses] == [h.tokens for h in want.hypotheses]
        assert [h.logp.hex() for h in got.hypotheses] == \
            [h.logp.hex() for h in want.hypotheses]
        assert got.completed == want.completed

    @pytest.mark.parametrize("max_length", [1, 2, 3])
    @_BOTH_DECODERS
    def test_final_beam_is_never_scored(self, search, max_length):
        # the first step consumes BOS and each later one the beam's three
        # last tokens; the children the last step selects are returned unscored
        scorer = TableScorer(table_of([[1, 2, 3, 4]] * 4))
        result = search(scorer, max_length)
        assert len(result.hypotheses) == 3 and len(result.best.tokens) == 1 + max_length
        assert scorer.calls == 1 + 3 * (max_length - 1)

    @_BOTH_DECODERS
    def test_a_dead_end_ends_the_search(self, search):
        # token 1 always follows BOS, and nothing follows token 1: the step
        # that expands it has no candidate, and the live beam is returned
        scorer = TableScorer(np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))
        result = search(scorer, 4)
        assert [h.tokens for h in result.hypotheses] == [(0, 1)]
        assert not result.completed and not result.best.finished
        assert scorer.calls == 2


class SameRowScorer(TableScorer):
    """Every next-token distribution is the table's first row."""

    def step(self, session, token, hooks=None):
        return super().step(session, 0, hooks)


def boundary_tie_scorer(v: int, k: int) -> SameRowScorer:
    """The next-token distribution over ``v`` tokens whose ``k + 1`` last
    tokens tie and share all the mass: a beam of ``k`` has room for all but
    the last of them."""
    row = np.zeros((1, v))
    row[0, v - k - 1:] = 1.0 / (k + 1)
    return SameRowScorer(row)


class TestBoundaryTies:
    # v = 6 ranks full rows; v = 2000 ranks bounded candidates
    @pytest.mark.parametrize("v", [6, 2000])
    def test_decode_keeps_the_smaller_ids(self, v):
        k = 3
        config = DecodingConfig(beam_size=k, max_length=1)
        result = decode(boundary_tie_scorer(v, k), None, None, None, config)
        assert sorted(h.tokens[-1] for h in result.hypotheses) == list(range(v - k - 1, v - 1))

    @pytest.mark.parametrize("v", [6, 2000])
    def test_plain_beam_search_keeps_the_smaller_ids(self, v):
        k = 3
        result = plain_beam_search(boundary_tie_scorer(v, k), k, 1)
        assert sorted(h.tokens[-1] for h in result.hypotheses) == list(range(v - k - 1, v - 1))

    def test_trace_lists_ties_by_smaller_id(self, toy_facts):
        # weights on three levels over the toy vocabulary: each top five,
        # before and after the shift, is a run of ties among many
        row = np.random.default_rng(0).choice([4.0, 2.0, 1.0], size=len(toy_facts.vocab))
        program = parse_program("R(x) :- exists c in C, Equal(x, c)")
        ctx = EvalContext(facts=toy_facts, sets={"C": (int(np.argmin(row)),)})
        config = DecodingConfig(beam_size=5, max_length=1, alpha3=1.0)
        result = decode(SameRowScorer(row[None, :] / row.sum()), program, "R", ctx, config,
                        trace=True)
        (step,) = result.trace
        for listed in (step["top_before"], step["top_after"]):
            assert listed == sorted(listed, key=lambda entry: (-entry[1], entry[0]))
        expanded = sorted(result.hypotheses, key=lambda h: (-h.logp, h.tokens))
        assert [i for i, _ in step["top_after"]] == [h.tokens[-1] for h in expanded]


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

    def test_batched_decode_matches_per_session_loop(self, toy_facts, sentinel_ids):
        # the base step_batch loops step, as a delegating scorer does
        from logicdec.lm import Scorer
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer

        class LoopingScorer(Scorer):
            def __init__(self, inner):
                self.inner = inner
                self.vocab_size = inner.vocab_size
                self.supports_attention_hooks = inner.supports_attention_hooks
                self.calls = []  # (prefix after the step, hooks)

            def begin_session(self, targets=()):
                return self.inner.begin_session(targets)

            def step(self, session, token, hooks=None):
                self.calls.append((tuple(session.tokens) + (token,), hooks))
                return self.inner.step(session, token, hooks=hooks)

        bos, eos = sentinel_ids
        batched = TransformerScorer(TinyTransformer(
            TransformerConfig(vocab_size=len(toy_facts.vocab), seed=0)))
        looping = LoopingScorer(batched)
        config = replace(PRESETS["commongen"], max_length=12, bos_id=bos, eos_id=eos)
        for inst in load_instances(DATA / "lexical20.jsonl")[:4]:
            binding = lexical_rule_template(inst.concepts, toy_facts)
            program = parse_program(binding.source)
            a = decode(batched, program, "R", binding.ctx, config)
            b = decode(looping, program, "R", binding.ctx, config)
            assert a.best.tokens == b.best.tokens, inst.id
            assert a.best.logp == pytest.approx(b.best.logp, abs=1e-9), inst.id
            assert a.steps == b.steps
        # every hypothesis's hooks are gathers of the truth under its own prefix
        sets = binding.ctx.sets
        for prefix, hooks in looping.calls[-40:]:
            truth = prove(program, "R", Domain.vocabulary(toy_facts),
                          EvalContext(facts=toy_facts, sets={**sets, "Prev": prefix})).dense()
            assert (hooks.truth_prefix == truth[list(prefix)]).all()
            assert (hooks.truth_targets == truth[list(sets["C"])]).all()


class StepWatchingScorer(Scorer):
    """Delegates to ``inner``, calling ``on_step(batch size)`` before each
    ``step_batch``."""

    def __init__(self, inner: Scorer, on_step):
        self.inner, self.on_step = inner, on_step
        self.vocab_size = inner.vocab_size

    def begin_session(self, targets=()):
        return self.inner.begin_session(targets)

    def step(self, session, token, hooks=None):
        return self.inner.step(session, token, hooks)

    def step_batch(self, sessions, tokens, hooks=None):
        self.on_step(len(sessions))
        return self.inner.step_batch(sessions, tokens, hooks)


class TestDecodeStepWork:
    def test_full_mode_proves_every_step_and_keeps_no_earlier_truth(
            self, lexical_scorer, toy_facts, sentinel_ids, monkeypatch):
        # no two hypothesis steps share a prefix, so a "full" decode proves
        # once per hypothesis step and stores nothing: a step's truth
        # vectors die once the next step has ranked.
        from logicdec import decoder as D
        reprove_every_step(monkeypatch)
        proved, pending, steps = [], [], []
        original_prove = D.prove

        def counting_prove(program, rule, domain, ctx):
            proved.append(ctx.sets["Prev"])
            truth = original_prove(program, rule, domain, ctx)
            pending.append(weakref.ref(truth.values))
            return truth

        def on_step(batch):
            # the previous step's supports are still held; older ones not
            assert all(ref() is None for _, refs in steps[:-1] for ref in refs)
            steps.append((batch, pending[:]))
            pending.clear()

        monkeypatch.setattr(D, "prove", counting_prove)
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        ctx = EvalContext(facts=toy_facts, sets={"C": (v.id_of("garden"), v.id_of("river"))})
        config = replace(PRESETS["commongen"], max_length=8, bos_id=bos, eos_id=eos)
        result = decode(StepWatchingScorer(lexical_scorer, on_step), parse_program(LEXICAL_RULES),
                        "R", ctx, config)
        assert result.hypotheses and len(steps) == result.steps
        assert steps[0][0] == 1
        assert len(proved) == sum(batch for batch, _ in steps) == len(set(proved))
        assert all(len(refs) == batch for batch, refs in steps)

    def test_one_ranking_call_per_decoder_step(self, lexical_scorer, toy_facts, sentinel_ids,
                                               monkeypatch):
        from logicdec import decoder as D
        calls = []
        original = D.top_k_rows

        def counting_top_k_rows(rows, supports, alpha, k):
            calls.append(len(rows))
            return original(rows, supports, alpha, k)

        monkeypatch.setattr(D, "top_k_rows", counting_top_k_rows)
        bos, eos = sentinel_ids
        instance = load_instances(DATA / "lexical20.jsonl")[0]
        binding = lexical_rule_template(instance.concepts, toy_facts)
        config = replace(PRESETS["commongen"], max_length=16, bos_id=bos, eos_id=eos)
        result = decode(lexical_scorer, parse_program(binding.source), binding.rule, binding.ctx,
                        config)
        assert result.steps > 1 and len(calls) == result.steps
        assert max(calls) > 1  # each call ranks the whole beam


class TestMemoisedTruthEqualsFresh:
    def test_coverage_memo_matches_full_reproving(self, lexical_scorer, toy_facts,
                                                  sentinel_ids, monkeypatch):
        # same decode through the memoised path and a rule variant that the
        # analysis cannot memoise (forced "full") must agree exactly
        bos, eos = sentinel_ids
        v = toy_facts.vocab
        program = parse_program(LEXICAL_RULES)
        ctx = EvalContext(facts=toy_facts,
                          sets={"C": (v.id_of("garden"), v.id_of("river"))})
        config = replace(PRESETS["commongen"], max_length=10, bos_id=bos, eos_id=eos)
        memoised = decode(lexical_scorer, program, "R", ctx, config)

        reprove_every_step(monkeypatch)
        ctx2 = EvalContext(facts=toy_facts,
                           sets={"C": (v.id_of("garden"), v.id_of("river"))})
        fresh = decode(lexical_scorer, program, "R", ctx2, config)
        assert [h.tokens for h in memoised.hypotheses] == \
            [h.tokens for h in fresh.hypotheses]
        assert memoised.best.logp == pytest.approx(fresh.best.logp, abs=1e-12)


class DenseNgramScorer(Scorer):
    """An n-gram scorer whose ``step_batch`` writes every distribution out."""

    def __init__(self, inner: NgramScorer):
        self.inner = inner
        self.vocab_size = inner.vocab_size

    def begin_session(self, targets=()):
        return self.inner.begin_session(targets)

    def step(self, session, token, hooks=None):
        return self.inner.step(session, token, hooks)

    def step_batch(self, sessions, tokens, hooks=None):
        return [d.dense() for d in self.inner.step_batch(sessions, tokens, hooks)]


@st.composite
def large_vocabulary_decodes(draw):
    """A random n-gram world past ``FULL_RANK_MAX_V`` tokens: a corpus over a
    few active tokens, random edges among them, concepts and a config."""
    v = draw(st.integers(FULL_RANK_MAX_V + 1, FULL_RANK_MAX_V + 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.choice(np.arange(2, v), size=draw(st.integers(3, 200)), replace=False)
    corpus = [[0] + rng.choice(active, size=rng.integers(1, 12)).tolist() + [1]
              for _ in range(draw(st.integers(1, 80)))]
    vocab = Vocabulary(["<s>", "</s>"] + [f"w{i}" for i in range(2, v)])
    edges = [(int(a), int(b), float(rng.uniform(0.1, 1.0)))
             for a, b in rng.choice(active, size=(draw(st.integers(0, 300)), 2)) if a != b]
    facts = FactBase.from_edges(vocab, edges, mode="soft")
    concepts = [vocab.token(int(i)) for i in rng.choice(active, size=draw(st.integers(1, 3)),
                                                        replace=False)]
    config = replace(PRESETS["commongen"], beam_size=draw(st.integers(1, 12)),
                     max_length=draw(st.integers(1, 8)), bos_id=0,
                     eos_id=draw(st.sampled_from([1, None])),
                     prune_ratio=draw(st.sampled_from([1e-9, 0.6])),
                     alpha3=draw(st.sampled_from([0.0, 24.0, 1e4])))
    lm = ngram_train(corpus, order=draw(st.integers(1, 4)), vocab_size=v)
    return lm, facts, concepts, config, draw(st.booleans())


class TestSparseNgramDecode:
    @settings(max_examples=40, deadline=None)
    @given(large_vocabulary_decodes())
    def test_equals_decode_over_dense_rows(self, case):
        lm, facts, concepts, config, constrained = case
        results = []
        for scorer in (NgramScorer(lm), DenseNgramScorer(NgramScorer(lm))):
            if constrained:
                binding = lexical_rule_template(concepts, facts)
                results.append(decode(scorer, parse_program(binding.source), binding.rule,
                                      binding.ctx, config, trace=True))
            else:
                results.append(decode(scorer, None, None, None, config, trace=True))
        sparse, dense = results
        assert [(h.tokens, h.logp, h.covered, h.finished) for h in sparse.hypotheses] == \
            [(h.tokens, h.logp, h.covered, h.finished) for h in dense.hypotheses]
        assert (sparse.completed, sparse.steps, sparse.trace) == \
            (dense.completed, dense.steps, dense.trace)


def dense_trace_entry(step_index: int, scores: np.ndarray, raw: np.ndarray,
                      shifting: bool) -> dict:
    """The oracle: a trace entry ranked apart from the decoder's kernel, by
    stable argsorts of the first row's dense ``pre_activation`` before and
    after the shift, the scores the kernel ranks (``log p`` may tie where
    ``p`` differs in its last bit)."""
    before = [[int(i), float(raw[i])]
              for i in np.argsort(-pre_activation(raw), kind="stable")[:5]]
    after = [[int(i), float(np.exp(scores[i]))] for i in np.argsort(-scores, kind="stable")[:5]] \
        if shifting else before
    return {"step": step_index, "top_after": after, "top_before": before}


def trace_and_oracle(scorer, program, rule, ctx, config) -> tuple[list, list]:
    """A traced decode's trace, and the oracle's entries for the first row
    and truth of each step's last ``top_k_rows`` call, the beam's."""
    calls, rank = [], decoder.top_k_rows

    def recorded(rows, truths, alpha, k):
        calls.append((np.array(rows[0], dtype=float), truths[0], alpha))
        return rank(rows, truths, alpha, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "top_k_rows", recorded)
        trace = decode(scorer, program, rule, ctx, config, trace=True).trace
    per_step = len(calls) // len(trace)
    assert per_step in (2, 3) and len(calls) == per_step * len(trace)
    oracle = []
    for step, (raw, truth, alpha) in enumerate(calls[per_step - 1::per_step]):
        scores = pre_activation(raw, None if truth is None else truth.dense(), alpha)
        oracle.append(dense_trace_entry(step, scores, raw, truth is not None))
    return trace, oracle


class TestTraceEqualsDenseOracle:
    """``trace`` ranks the first row with ``top_k_rows``; its entries equal a
    dense ranking of that row, ids and values."""

    @pytest.mark.parametrize("scorer_kind", ["ngram", "transformer"])
    @pytest.mark.parametrize("suite", ["lexical20", "dialogue10"])
    def test_toy_suites(self, lexical_scorer, dialogue_scorer, toy_facts, sentinel_ids,
                        suite, scorer_kind):
        from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer
        bos, eos = sentinel_ids
        lexical = suite == "lexical20"
        config = replace(PRESETS["commongen" if lexical else "personachat"],
                         max_length=16 if lexical else 10, bos_id=bos, eos_id=eos,
                         length_norm_power=1.0 if lexical else 0.7)
        scorer = TransformerScorer(TinyTransformer(TransformerConfig(
            vocab_size=len(toy_facts.vocab), seed=0))) if scorer_kind == "transformer" \
            else lexical_scorer if lexical else dialogue_scorer
        for instance in load_instances(DATA / f"{suite}.jsonl"):
            binding = lexical_rule_template(instance.concepts, toy_facts) if lexical else \
                dialogue_rule_template(instance.persona, instance.history, toy_facts)
            trace, oracle = trace_and_oracle(scorer, parse_program(binding.source),
                                             binding.rule, binding.ctx, config)
            assert trace == oracle, instance.instance_id

    @settings(max_examples=25, deadline=None)
    @given(large_vocabulary_decodes())
    def test_large_vocabularies(self, case):
        lm, facts, concepts, config, constrained = case
        for scorer in (NgramScorer(lm), DenseNgramScorer(NgramScorer(lm))):
            if constrained:
                binding = lexical_rule_template(concepts, facts)
                trace, oracle = trace_and_oracle(scorer, parse_program(binding.source),
                                                 binding.rule, binding.ctx, config)
            else:
                trace, oracle = trace_and_oracle(scorer, None, None, None, config)
            assert trace == oracle


class TestConceptSet:
    """``decode`` checks the concept set before it scores anything, proving
    or not: every id in the vocabulary, at most 64 ids (the coverage masks
    are uint64)."""

    @pytest.mark.parametrize("cid", [-1, 75])
    @pytest.mark.parametrize("alpha3", [0.0, 24.0])
    def test_ids_outside_the_vocabulary_are_refused(self, lexical_scorer, toy_facts,
                                                    sentinel_ids, cid, alpha3):
        bos, eos = sentinel_ids
        assert len(toy_facts.vocab) == 75
        steps = []
        scorer = StepWatchingScorer(lexical_scorer, steps.append)
        ctx = EvalContext(facts=toy_facts, sets={"C": (toy_facts.vocab.id_of("garden"), cid)})
        config = DecodingConfig(beam_size=3, alpha3=alpha3, max_length=4, bos_id=bos,
                                eos_id=eos)
        for program, rule in ((None, None), (parse_program(LEXICAL_RULES), "R")):
            with pytest.raises(ValueError, match=f"set 'C' binds token id {cid} outside"):
                decode(scorer, program, rule, ctx, config)
        assert not steps

    def test_64_concepts_decode_and_65_are_refused(self, lexical_scorer, toy_facts,
                                                   sentinel_ids):
        bos, eos = sentinel_ids
        v = len(toy_facts.vocab)
        program = parse_program(LEXICAL_RULES)
        config = replace(PRESETS["commongen"], max_length=4, bos_id=bos, eos_id=eos)
        concepts = tuple(range(v - 64, v))
        ctx = EvalContext(facts=toy_facts, sets={"C": concepts})
        # BOS is the 64th concept, so every mask has bit 63 set
        result = decode(lexical_scorer, program, "R", ctx, replace(config, bos_id=concepts[-1]))
        assert result.hypotheses
        table, class_of = coverage_table(concepts, toy_facts), toy_facts.stems.class_of
        for hyp in result.hypotheses:
            assert hyp.covered >> 63 & 1
            folded = 0
            for tok in hyp.tokens:
                folded |= table[class_of[tok]]
            assert hyp.covered == folded

        steps = []
        ctx = EvalContext(facts=toy_facts, sets={"C": tuple(range(v - 65, v))})
        with pytest.raises(ValueError, match="at most 64 concepts, got 65"):
            decode(StepWatchingScorer(lexical_scorer, steps.append), program, "R", ctx, config)
        assert not steps


class TestResultTypes:
    """Hypotheses carry Python scalars: callers json-encode their tokens."""

    @pytest.mark.parametrize("max_length", [16, 2])  # finished, then live, hypotheses
    def test_hypotheses_hold_python_ints_and_floats(self, lexical_scorer, dialogue_scorer,
                                                    toy_facts, sentinel_ids, max_length):
        bos, eos = sentinel_ids
        lexical = load_instances(DATA / "lexical20.jsonl")[0]
        dialogue = load_instances(DATA / "dialogue10.jsonl")[0]
        runs = [(lexical_scorer, lexical_rule_template(lexical.concepts, toy_facts),
                 PRESETS["commongen"]),
                (dialogue_scorer,
                 dialogue_rule_template(dialogue.persona, dialogue.history, toy_facts),
                 PRESETS["personachat"])]
        for scorer, binding, preset in runs:
            config = replace(preset, max_length=max_length, bos_id=bos, eos_id=eos)
            result = decode(scorer, parse_program(binding.source), binding.rule, binding.ctx,
                            config)
            assert result.completed == (max_length == 16)
            assert json.loads(json.dumps(list(result.best.tokens))) == list(result.best.tokens)
            for hyp in result.hypotheses:
                assert all(type(t) is int for t in hyp.tokens)
                assert type(hyp.covered) is int and type(hyp.logp) is float
