import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logicdec.kb import FactBase, Vocabulary
from logicdec.prover import (Domain, EvalContext, and_avg_vec, and_luk_vec,
                             not_vec, or_vec, prove, prove_scalar)
from logicdec.rules import EmptyDomainError, UnboundSetError, parse_program
from logicdec.tasks import template_text

COMMONGEN_AVG = """
R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""

COMMONGEN_HARD = COMMONGEN_AVG.replace("^", "&")

PERSONA = """
R(x) :- Persona(x) | Common(x)
Persona(x) :- exists p in P, Equal(x, p)
Common(x) :- (exists p in P, Edge(x, p)) ^ (exists u in U, Edge(x, u))
"""


class TestConnectives:
    def test_soft_values(self):
        a, b = np.array([0.3]), np.array([0.5])
        assert or_vec([a, b])[0] == pytest.approx(0.8)
        assert and_avg_vec([a, b])[0] == pytest.approx(0.4)
        assert and_luk_vec([a, b])[0] == pytest.approx(0.0)
        assert not_vec(a)[0] == pytest.approx(0.7)

    def test_boolean_tables(self):
        for p in (0.0, 1.0):
            for q in (0.0, 1.0):
                a, b = np.array([p]), np.array([q])
                assert or_vec([a, b])[0] == float(bool(p) or bool(q))
                assert and_luk_vec([a, b])[0] == float(bool(p) and bool(q))
            assert not_vec(np.array([p]))[0] == float(not p)

    def test_averaging_is_not_boolean_and(self):
        assert and_avg_vec([np.array([0.0]), np.array([1.0])])[0] == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            or_vec([np.zeros(3), np.zeros(4)])

    @given(st.lists(st.lists(st.floats(0, 1), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    def test_outputs_stay_in_unit_interval(self, rows):
        arrays = [np.array(r) for r in rows]
        for op in (or_vec, and_avg_vec, and_luk_vec):
            out = op(arrays)
            assert (out >= 0).all() and (out <= 1).all()

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=6),
           st.integers(0, 5), st.floats(0, 1))
    def test_monotone_in_each_argument(self, values, index, bump):
        index %= len(values)
        raised = list(values)
        raised[index] = min(1.0, raised[index] + bump)
        lo = [np.array([v]) for v in values]
        hi = [np.array([v]) for v in raised]
        for op in (or_vec, and_avg_vec, and_luk_vec):
            assert op(hi)[0] >= op(lo)[0] - 1e-12

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        arrays = [rng.random(64) for _ in range(5)]
        for op in (or_vec, and_avg_vec, and_luk_vec):
            first = op(arrays)
            again = op([a.copy() for a in arrays])
            assert (first == again).all()


def commongen_fixture():
    vocab = Vocabulary(["<s>", "learning", "classroom", "students", "enjoy", "fun"])
    facts = FactBase.from_edges(vocab, [(1, 2, 1.0)], mode="hard")
    ctx = EvalContext(facts=facts, sets={"C": (2,), "Prev": (0,)})
    return facts, ctx


class TestProve:
    def test_commongen_single_concept_vector(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        out = prove(program, "R", Domain.vocabulary(facts), ctx)
        # oracle-computed: avg(1, Rel) with Rel = 1 for the edge endpoint and
        # the concept itself, 0 elsewhere
        expected = [0.5, 1.0, 1.0, 0.5, 0.5, 0.5]
        assert out.tolist() == pytest.approx(expected, abs=1e-12)
        scalar = [prove_scalar(program, "R", w, ctx) for w in range(6)]
        assert out.tolist() == pytest.approx(scalar, abs=1e-12)

    def test_zero_fact_fixpoints(self):
        vocab = Vocabulary(["<s>", "a", "b", "c"])
        facts = FactBase.from_edges(vocab, [], mode="soft")
        ctx = EvalContext(facts=facts, sets={"C": (3,), "Prev": (0,)})
        soft = prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx)
        # uncovered concept, no facts: every word scores half the gate,
        # except the concept itself through stem equality
        assert soft.tolist() == pytest.approx([0.5, 0.5, 0.5, 1.0])
        hard = prove(parse_program(COMMONGEN_HARD), "R", Domain.vocabulary(facts), ctx)
        assert hard.tolist() == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_persona_bridging_word(self):
        vocab = Vocabulary(["dog", "pets", "garden", "cat", "walk", "home"])
        facts = FactBase.from_edges(vocab, [(0, 1, 1.0), (0, 2, 1.0)], mode="hard")
        ctx = EvalContext(facts=facts, sets={"P": (1,), "U": (2,)})
        program = parse_program(PERSONA)
        out = prove(program, "Common", Domain.vocabulary(facts), ctx)
        assert out[0] == pytest.approx(1.0)
        assert (out[1:] < 1.0).all()
        assert out.tolist() == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_covered_concept_is_gated(self):
        facts, _ = commongen_fixture()
        # prefix now contains the concept itself
        ctx = EvalContext(facts=facts, sets={"C": (2,), "Prev": (0, 2)})
        soft = prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx)
        assert soft.tolist() == pytest.approx([0.0, 0.5, 0.5, 0.0, 0.0, 0.0])
        hard = prove(parse_program(COMMONGEN_HARD), "R", Domain.vocabulary(facts), ctx)
        assert hard.tolist() == pytest.approx([0.0] * 6)

    def test_prefix_domain_is_positional(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        domain = Domain.prefix((1, 1, 2))
        out = prove(program, "R", domain, ctx)
        assert len(out) == 3
        assert out[0] == out[1]  # repeated token, distinct positions

    def test_scalar_examples(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        # word covered by a stem-mate in the prefix
        covered_ctx = EvalContext(facts=facts, sets={"C": (2,), "Prev": (0, 2)})
        assert prove_scalar(program, "Y", 2, covered_ctx) == 1.0
        persona_program = parse_program(PERSONA)
        vocab = Vocabulary(["dog", "pets", "garden"])
        pfacts = FactBase.from_edges(vocab, [], mode="hard")
        pctx = EvalContext(facts=pfacts, sets={"P": (1,), "U": (2,)})
        assert prove_scalar(persona_program, "Persona", 1, pctx) == 1.0

    def test_unbound_set_rejected(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (2,)})  # Prev missing
        with pytest.raises(UnboundSetError):
            prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx)

    def test_empty_set_rejected(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (), "Prev": (0,)})
        with pytest.raises(EmptyDomainError):
            prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx)

    def test_vocabulary_mismatch_rejected(self):
        facts, ctx = commongen_fixture()
        with pytest.raises(ValueError, match="outside"):
            prove(parse_program(COMMONGEN_AVG), "R", Domain.targets((99,)), ctx)

    def test_multi_parameter_rule_not_provable(self):
        facts, ctx = commongen_fixture()
        with pytest.raises(ValueError, match="exactly one"):
            prove(parse_program(COMMONGEN_AVG), "Rel", Domain.vocabulary(facts), ctx)

    def test_bound_atom_body_still_returns_domain_length_vector(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (1, 2), "Prev": (0, 2)})
        program = parse_program("R(x) :- exists c in C, (exists y in Prev, Equal(c, y))")
        for domain in (Domain.vocabulary(facts), Domain.prefix((1, 1, 2)),
                       Domain.targets((3,))):
            out = prove(program, "R", domain, ctx)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.tolist() == [1.0] * len(domain)
        never = parse_program(
            "R(x) :- exists c in C, (exists y in Prev, Equal(c, y) & Edge(c, y))")
        out = prove(never, "R", Domain.vocabulary(facts), ctx)
        assert out.shape == (len(facts.vocab),) and not out.any()

    def test_determinism(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        a = prove(program, "R", Domain.vocabulary(facts), ctx)
        b = prove(program, "R", Domain.vocabulary(facts), ctx)
        assert (a == b).all()


_TOY_IDS = st.integers(0, 74)  # the toy vocabulary has 75 tokens


class TestPositionsMatchVocabulary:
    """A position's truth value depends only on its token id, so proving a
    prefix or a target list gives exactly the vocabulary vector's entries."""

    @given(template=st.sampled_from(["commongen", "commongen_hard", "personachat"]),
           concepts=st.lists(_TOY_IDS, min_size=1, max_size=6),
           persona=st.lists(_TOY_IDS, min_size=1, max_size=10),
           user=st.lists(_TOY_IDS, min_size=1, max_size=10),
           prev=st.lists(_TOY_IDS, min_size=1, max_size=20))
    def test_prefix_and_targets_are_vocabulary_gathers(self, toy_facts, template,
                                                       concepts, persona, user, prev):
        program = parse_program(template_text(template))
        ctx = EvalContext(facts=toy_facts, sets={"C": tuple(concepts), "P": tuple(persona),
                                                 "U": tuple(user), "Prev": tuple(prev)})
        vocab = prove(program, "R", Domain.vocabulary(toy_facts), ctx)
        prefix = prove(program, "R", Domain.prefix(prev), ctx)
        targets = prove(program, "R", Domain.targets(concepts), ctx)
        assert prefix.tobytes() == vocab[prev].tobytes()
        assert targets.tobytes() == vocab[concepts].tobytes()


# ---------------------------------------------------------------------------
# Randomised differential testing against the scalar oracle

_FAMILIES = [
    ["run", "runs", "running", "ran"],
    ["walk", "walks", "walked"],
    ["dog", "dogs"], ["cat", "cats"], ["tree", "trees"],
    ["play", "plays", "playing"], ["ride", "rides"],
    ["house"], ["road"], ["garden"], ["piano"], ["river"], ["stone"],
    ["cloud", "clouds"], ["sing", "singing"], ["jump", "jumped"],
    ["book", "books"], ["light"], ["dark"], ["water"], ["fire"],
]


def random_world(rng: np.random.Generator):
    words = [w for fam in _FAMILIES for w in fam]
    size = int(rng.integers(8, 65))
    chosen = list(rng.choice(len(words), size=min(size, len(words)), replace=False))
    vocab = Vocabulary([words[i] for i in chosen])
    n = len(vocab)
    n_edges = int(rng.integers(0, 129))
    edges = []
    for _ in range(n_edges):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            edges.append((a, b, float(rng.uniform(0.05, 0.95))))
    mode = "soft"
    if rng.random() < 0.3:
        edges = [(a, b, 1.0) for a, b, _ in edges]
        mode = "hard"
    # drop edges within one stem class: they would be self-loops after closure
    facts_probe = FactBase.from_edges(vocab, [], mode=mode)
    edges = [(a, b, w) for a, b, w in edges if not facts_probe.same_stem(a, b)]
    facts = FactBase.from_edges(vocab, edges, mode=mode)
    sets = {}
    for name in ("A", "B", "D"):
        k = int(rng.integers(1, 5))
        sets[name] = tuple(int(rng.integers(n)) for _ in range(k))
    return facts, EvalContext(facts=facts, sets=sets)


def random_expression(rng, depth, variables, rules_so_far):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        pred = ["Equal", "Edge", "W"][int(rng.integers(3))]
        a = variables[int(rng.integers(len(variables)))]
        b = variables[int(rng.integers(len(variables)))]
        return f"{pred}({a}, {b})"
    if roll < 0.45 and rules_so_far:
        name, arity = rules_so_far[int(rng.integers(len(rules_so_far)))]
        args = ", ".join(variables[int(rng.integers(len(variables)))]
                         for _ in range(arity))
        return f"{name}({args})"
    if roll < 0.55:
        return "~" + _wrap(random_expression(rng, depth - 1, variables, rules_so_far))
    if roll < 0.72:
        var = f"q{depth}{int(rng.integers(10))}"
        set_name = ["A", "B", "D"][int(rng.integers(3))]
        kind = "exists" if rng.random() < 0.6 else "forall"
        inner = random_expression(rng, depth - 1, variables + [var], rules_so_far)
        return f"({kind} {var} in {set_name}, {inner})"
    op = ["|", "^", "&"][int(rng.integers(3))]
    k = int(rng.integers(2, 4))
    parts = [_wrap(random_expression(rng, depth - 1, variables, rules_so_far))
             for _ in range(k)]
    return f" {op} ".join(parts)


def _wrap(expr: str) -> str:
    return f"({expr})" if (" " in expr and not expr.startswith("(")) else expr


def random_program_source(rng) -> str:
    lines = []
    rules_so_far = []
    n_rules = int(rng.integers(1, 5))
    for i in range(n_rules):
        name = f"S{i}" if i + 1 < n_rules else "R"
        arity = 1 if i + 1 == n_rules else int(rng.integers(1, 3))
        params = ["x", "y"][:arity]
        body = random_expression(rng, 3, list(params), rules_so_far)
        lines.append(f"{name}({', '.join(params)}) :- {body}")
        rules_so_far.append((name, arity))
    return "\n".join(lines)


class TestOracleEquivalence:
    def test_randomized_programs_match_scalar_oracle(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 200:
            source = random_program_source(rng)
            program = parse_program(source)
            facts, ctx = random_world(rng)
            vector = prove(program, "R", Domain.vocabulary(facts), ctx)
            scalar = np.array([prove_scalar(program, "R", w, ctx)
                               for w in range(len(facts.vocab))])
            diff = np.abs(vector - scalar).max()
            assert diff <= 1e-9, f"program:\n{source}\nmax diff {diff}"
            assert (vector >= 0).all() and (vector <= 1).all()
            checked += 1
