import json

import pytest

from logicdec.rules import parse_program
from logicdec.stemming import word_stem
from logicdec.prover import Domain, EvalContext, prove
from logicdec.tasks import (DEFAULT_STOPWORDS, TaskInstance, corpus_coverage,
                            dialogue_rule_template, extract_keywords,
                            instance_coverage, lexical_rule_template,
                            load_instances, read_instances, template_text)

from conftest import DATA

# frozen extractor outputs; regenerating them requires a deliberate change
EXTRACTION_GOLDENS = {
    "I like to read books .": ("read", "books"),
    "i have pets": ("pets",),
    "The quick brown fox jumps over the lazy dog!": (
        "quick", "brown", "fox", "jumps", "lazy", "dog"),
    "I went to the park": ("go", "park"),
    "a a the to of": (),
    "Dogs, dogs, DOGS!": ("dogs",),
    "x y z": (),
}


class TestExtraction:
    def test_goldens(self):
        for sentence, expected in EXTRACTION_GOLDENS.items():
            assert extract_keywords(sentence) == expected, sentence

    def test_stopwords_never_pass(self):
        for word in ("the", "and", "i", "is", "like"):
            assert word in DEFAULT_STOPWORDS
            assert word not in extract_keywords(f"something {word} something")

    def test_duplicates_collapse(self):
        assert extract_keywords("garden garden garden") == ("garden",)

    def test_determinism(self):
        s = "Dogs chase cats and cats chase mice."
        assert extract_keywords(s) == extract_keywords(s)


class TestInstances:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "inst.jsonl"
        path.write_text(
            json.dumps({"kind": "lexical", "concepts": ["a", "b"]}) + "\n" +
            json.dumps({"kind": "dialogue", "persona": ["i ski"],
                        "history": ["hello"], "reference": "ok"}) + "\n",
            encoding="utf-8")
        lex, dlg = load_instances(path)
        assert lex.kind == "lexical" and lex.concepts == ("a", "b")
        assert dlg.kind == "dialogue" and dlg.reference == "ok"

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            TaskInstance(kind="lexical", concepts=())
        with pytest.raises(ValueError):
            TaskInstance(kind="dialogue", persona=())
        with pytest.raises(ValueError):
            TaskInstance(kind="nonsense")

    @pytest.mark.parametrize("line, problem", [
        ('not json', "line 2: Expecting value"),
        ('[1, 2]', "line 2: expected a JSON object"),
        ('{"kind": "lexical"}', "line 2: lexical instance needs at least one concept"),
        ('{"kind": "lexical", "concepts": "garden"}', "line 2: 'concepts' must be a list"),
        ('{"kind": "poem", "concepts": ["a"]}', "line 2: unknown instance kind 'poem'"),
    ])
    def test_a_malformed_line_is_reported_with_its_number(self, tmp_path, line, problem):
        path = tmp_path / "inst.jsonl"
        path.write_text(json.dumps({"kind": "lexical", "concepts": ["a"]}) + "\n"
                        + line + "\n\n" + json.dumps({"id": "z", "kind": "lexical",
                                                      "concepts": ["b"]}) + "\n")
        (first_id, first), (bad_id, bad), (last_id, last) = read_instances(path)
        assert (first_id, first.concepts) == ("0", ("a",))
        assert bad_id == "1" and isinstance(bad, ValueError) and str(bad).startswith(problem)
        assert (last_id, last.concepts) == ("z", ("b",))
        with pytest.raises(ValueError, match="^line 2: "):
            load_instances(path)

    def test_shipped_suites_parse(self):
        assert len(load_instances(DATA / "lexical20.jsonl")) == 20
        assert len(load_instances(DATA / "dialogue10.jsonl")) == 10


class TestLexicalTemplate:
    def test_binding_and_linking(self, toy_facts):
        binding = lexical_rule_template(["enjoy", "garden", "piano"], toy_facts)
        # "enjoy" is not in the toy vocabulary: reported, not fatal
        assert binding.skipped == ("enjoy",)
        assert len(binding.ctx.sets["C"]) == 2
        program = parse_program(binding.source)
        assert "R" in program.rules

    def test_single_concept_quantifier_collapses(self, toy_facts):
        # with one concept c, R(x) is its body ~Y(c) & Rel(x, c), bit for bit
        from logicdec.prover import and_luk_vec, not_vec, or_vec
        binding = lexical_rule_template(["garden"], toy_facts)
        (c,) = binding.ctx.sets["C"]
        ctx = EvalContext(facts=toy_facts, sets={"C": (c,), "Prev": (0,)})
        out = prove(parse_program(binding.source), "R", Domain.vocabulary(toy_facts), ctx).dense()
        rel = or_vec([toy_facts.edge_truth(c).dense(), toy_facts.equal_truth(c).dense()])
        body = and_luk_vec([not_vec(float(toy_facts.same_stem(c, 0))), rel])
        assert out.tobytes() == body.tobytes()

    def test_no_alignable_concepts_is_an_error(self, toy_facts):
        with pytest.raises(ValueError, match="none of the concepts"):
            lexical_rule_template(["zzz", "qqq"], toy_facts)

    def test_only_the_hard_gate_is_a_lexical_template(self, toy_facts):
        with pytest.raises(ValueError, match="gate 'avg' .* --rules"):
            lexical_rule_template(["garden"], toy_facts, gate="avg")
        hard = lexical_rule_template(["garden"], toy_facts, gate="luk")
        assert hard.source == lexical_rule_template(["garden"], toy_facts).source
        assert hard.source == template_text("commongen_hard")

    def test_first_step_truth_favours_only_related_words(self, toy_facts):
        # proved as the decoder's first step proves it: the prefix is <s>
        prev = (toy_facts.vocab.id_of("<s>"),)
        for inst in load_instances(DATA / "lexical20.jsonl"):
            binding = lexical_rule_template(inst.concepts, toy_facts)
            ctx = EvalContext(toy_facts, {**binding.ctx.sets, "Prev": prev})
            truth = prove(parse_program(binding.source), "R",
                          Domain.vocabulary(toy_facts), ctx)
            dense = truth.dense()
            assert truth.background == 0.0, inst.instance_id
            assert dense.min() < dense.max(), inst.instance_id
            related = set(binding.ctx.sets["C"])
            for c in binding.ctx.sets["C"]:
                related |= set(toy_facts.edge_truth(c).ids.tolist())
                related |= set(toy_facts.equal_truth(c).ids.tolist())
            unrelated = sorted(set(range(len(toy_facts.vocab))) - related)
            assert unrelated and (dense[unrelated] == 0.0).all(), inst.instance_id


class TestDialogueTemplate:
    def test_keywords_and_bindings(self, toy_facts):
        binding = dialogue_rule_template(
            ["i have pets"], ["is that a garden ?"], toy_facts)
        v = toy_facts.vocab
        assert v.id_of("pets") in binding.ctx.sets["P"]
        assert v.id_of("garden") in binding.ctx.sets["U"]
        parse_program(binding.source)

    def test_empty_history_replaces_branch_with_constant(self, toy_facts):
        binding = dialogue_rule_template(["i have pets"], [], toy_facts)
        assert "U" not in binding.ctx.sets
        assert "^ 0" in binding.source
        program = parse_program(binding.source)
        # the rule still proves: persona side drives R, Common contributes
        # half of its remaining branch
        from logicdec.prover import prove_scalar
        out = prove(program, "R", Domain.vocabulary(toy_facts), binding.ctx).dense()
        pets = toy_facts.vocab.id_of("pets")
        assert out[pets] == pytest.approx(
            prove_scalar(program, "R", pets, binding.ctx))
        assert out[pets] == pytest.approx(1.0)

    def test_program_is_the_shipped_template_with_and_without_u(self, toy_facts):
        head = ("R(x) :- Persona(x) | Common(x)\n"
                "Persona(x) :- exists p in P, Equal(x, p)\n"
                "Common(x) :- (exists p in P, Edge(x, p)) ^ ")
        with_u = dialogue_rule_template(["i have pets"], ["is that a garden ?"], toy_facts)
        assert parse_program(with_u.source) == parse_program(
            head + "(exists u in U, Edge(x, u))")
        without_u = dialogue_rule_template(["i have pets"], [], toy_facts)
        assert parse_program(without_u.source) == parse_program(head + "0")

    def test_template_holds_the_u_branch_exactly_once(self):
        # the empty-U rewrite replaces this text; were it edited away, the
        # rewrite would do nothing and proving would fail on the unbound U
        assert template_text("personachat").count("(exists u in U, Edge(x, u))") == 1

    def test_empty_persona_is_an_error(self, toy_facts):
        with pytest.raises(ValueError, match="persona"):
            dialogue_rule_template(["the of and"], ["hi"], toy_facts)

    def test_all_shipped_instances_round_trip(self, toy_facts):
        for inst in load_instances(DATA / "dialogue10.jsonl"):
            binding = dialogue_rule_template(inst.persona, inst.history, toy_facts)
            parse_program(binding.source)
        for inst in load_instances(DATA / "lexical20.jsonl"):
            binding = lexical_rule_template(inst.concepts, toy_facts)
            parse_program(binding.source)


class TestCoverage:
    def test_full_and_empty(self):
        insts = [TaskInstance("lexical", concepts=("garden", "piano"))]
        assert corpus_coverage(["the garden piano"], insts) == 100.0
        assert corpus_coverage(["nothing here"], insts) == 0.0

    def test_half_covered(self):
        insts = [TaskInstance("lexical", concepts=("garden", "piano"))] * 2
        outputs = ["a garden", "a piano"]
        assert corpus_coverage(outputs, insts) == 50.0

    def test_stem_matching(self):
        assert instance_coverage("we went running", ("run",)) == 1.0
        assert instance_coverage("the gardens bloom", ("garden",)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="outputs"):
            corpus_coverage(["x"], [])

    def test_no_concepts_is_fully_covered(self):
        assert instance_coverage("anything at all", ()) == 1.0

    def test_no_instances_is_an_error(self):
        with pytest.raises(ValueError, match="no instances"):
            corpus_coverage([], [])

    def test_agrees_with_bruteforce_checker(self):
        rng_words = ["garden", "gardens", "running", "ran", "dog", "cat",
                     "house", "piano", "walked", "trees"]
        concepts = ["garden", "run", "dog", "tree", "piano"]
        import random
        rnd = random.Random(4)
        for _ in range(100):
            text = " ".join(rnd.choices(rng_words, k=rnd.randint(1, 6)))
            concept = rnd.choice(concepts)

            def brute(text, concept):
                cs = word_stem(concept)
                return any(word_stem(w) == cs for w in text.split())

            assert instance_coverage(text, (concept,)) == float(brute(text, concept))


def test_template_files_ship_with_package():
    for name in ("commongen_hard", "personachat"):
        parse_program(template_text(name))


def test_each_template_is_read_from_the_package_once(monkeypatch):
    from importlib import resources
    template_text.cache_clear()
    reads = []
    files = resources.files

    def counting(package):
        reads.append(package)
        return files(package)

    monkeypatch.setattr(resources, "files", counting)
    assert template_text("personachat") is template_text("personachat")
    assert reads == ["logicdec.templates"]
