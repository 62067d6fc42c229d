import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicdec.kb import FactBase, Vocabulary
from logicdec.prover import (Domain, EvalContext, and_avg_vec, and_luk_vec,
                             not_vec, or_vec, prove, prove_scalar)
from logicdec import prover as P, rules as R
from logicdec.rules import EmptyDomainError, UnboundSetError, parse_program
from logicdec.tasks import template_text
from logicdec.truth import Truth

from test_decoder import _toy_program

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

    def test_no_children_rejected(self):
        with pytest.raises(ValueError, match="at least one child"):
            or_vec([])

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
        out = prove(program, "R", Domain.vocabulary(facts), ctx).dense()
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
        soft = prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx).dense()
        # uncovered concept, no facts: every word scores half the gate,
        # except the concept itself through stem equality
        assert soft.tolist() == pytest.approx([0.5, 0.5, 0.5, 1.0])
        hard = prove(parse_program(COMMONGEN_HARD), "R", Domain.vocabulary(facts), ctx).dense()
        assert hard.tolist() == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_persona_bridging_word(self):
        vocab = Vocabulary(["dog", "pets", "garden", "cat", "walk", "home"])
        facts = FactBase.from_edges(vocab, [(0, 1, 1.0), (0, 2, 1.0)], mode="hard")
        ctx = EvalContext(facts=facts, sets={"P": (1,), "U": (2,)})
        program = parse_program(PERSONA)
        out = prove(program, "Common", Domain.vocabulary(facts), ctx).dense()
        assert out[0] == pytest.approx(1.0)
        assert (out[1:] < 1.0).all()
        assert out.tolist() == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_covered_concept_is_gated(self):
        facts, _ = commongen_fixture()
        # prefix now contains the concept itself
        ctx = EvalContext(facts=facts, sets={"C": (2,), "Prev": (0, 2)})
        soft = prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx).dense()
        assert soft.tolist() == pytest.approx([0.0, 0.5, 0.5, 0.0, 0.0, 0.0])
        hard = prove(parse_program(COMMONGEN_HARD), "R", Domain.vocabulary(facts), ctx).dense()
        assert hard.tolist() == pytest.approx([0.0] * 6)

    def test_prefix_domain_is_positional(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        domain = Domain.targets((1, 1, 2))
        out = prove(program, "R", domain, ctx).dense()
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
        with pytest.raises(ValueError, match="token id 99 outside vocabulary"):
            prove_scalar(parse_program(COMMONGEN_AVG), "R", 99, ctx)

    def test_caller_memo_is_keyed_by_rule_arguments_and_sets_read(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        memo: dict = {}
        with_memo = EvalContext(facts=facts, sets=ctx.sets, memo=memo)
        # the entries hold vocabulary truths, so every domain may share them
        targets = prove(program, "R", Domain.targets((1, 2)), with_memo).dense()
        out = prove(program, "R", Domain.vocabulary(facts), with_memo).dense()
        assert out.tobytes() == prove(program, "R", Domain.vocabulary(facts), ctx).dense().tobytes()
        assert targets.tobytes() == out[[1, 2]].tobytes()
        assert memo and all(isinstance(name, str) and isinstance(args, tuple)
                            and sets == [ctx.sets[s] for s in program.reads[name]]
                            for name, args, *sets in memo)

    def test_multi_parameter_rule_not_provable(self):
        facts, ctx = commongen_fixture()
        with pytest.raises(ValueError, match="exactly one"):
            prove(parse_program(COMMONGEN_AVG), "Rel", Domain.vocabulary(facts), ctx)
        with pytest.raises(ValueError, match="exactly one"):
            prove_scalar(parse_program(COMMONGEN_AVG), "Rel", 1, ctx)

    @pytest.mark.parametrize("source, value", [("R(x) :- 1", 1.0), ("R(x) :- ~1", 0.0)])
    def test_constant_one(self, source, value):
        facts, ctx = commongen_fixture()
        program = parse_program(source)
        assert prove(program, "R", Domain.vocabulary(facts), ctx).dense().tolist() == \
            [value] * len(facts.vocab)
        assert [prove_scalar(program, "R", w, ctx) for w in range(len(facts.vocab))] == \
            [value] * len(facts.vocab)

    def test_vocabulary_domain_of_the_wrong_length_rejected(self):
        facts, ctx = commongen_fixture()
        domain = Domain("vocab", np.arange(len(facts.vocab) - 1, dtype=np.int64))
        with pytest.raises(ValueError, match="one position per vocabulary token"):
            prove(parse_program(COMMONGEN_AVG), "R", domain, ctx)

    def test_set_binding_an_id_outside_the_vocabulary_rejected(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (2, 99), "Prev": (0,)})
        with pytest.raises(ValueError, match="set 'C' binds token id 99 outside"):
            prove(parse_program(COMMONGEN_AVG), "R", Domain.vocabulary(facts), ctx)

    def test_scalar_empty_set_rejected(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (), "Prev": (0,)})
        with pytest.raises(EmptyDomainError):
            prove_scalar(parse_program(COMMONGEN_AVG), "R", 1, ctx)

    def test_bound_atom_body_still_returns_domain_length_vector(self):
        facts, _ = commongen_fixture()
        ctx = EvalContext(facts=facts, sets={"C": (1, 2), "Prev": (0, 2)})
        program = parse_program("R(x) :- exists c in C, (exists y in Prev, Equal(c, y))")
        for domain in (Domain.vocabulary(facts), Domain.targets((1, 1, 2)),
                       Domain.targets((3,))):
            out = prove(program, "R", domain, ctx)
            assert isinstance(out, Truth) and out.size == len(domain)
            assert out.dense().tolist() == [1.0] * len(domain)
        never = parse_program(
            "R(x) :- exists c in C, (exists y in Prev, Equal(c, y) & Edge(c, y))")
        out = prove(never, "R", Domain.vocabulary(facts), ctx).dense()
        assert out.shape == (len(facts.vocab),) and not out.any()

    def test_determinism(self):
        facts, ctx = commongen_fixture()
        program = parse_program(COMMONGEN_AVG)
        a = prove(program, "R", Domain.vocabulary(facts), ctx).dense()
        b = prove(program, "R", Domain.vocabulary(facts), ctx).dense()
        assert (a == b).all()


_TOY_IDS = st.integers(0, 74)  # the toy vocabulary has 75 tokens


class TestPositionsMatchVocabulary:
    """A position's truth value depends only on its token id, so proving a
    prefix or a target list gives exactly the vocabulary vector's entries."""

    @given(template=st.sampled_from(["commongen_hard", "personachat"]),
           concepts=st.lists(_TOY_IDS, min_size=1, max_size=6),
           persona=st.lists(_TOY_IDS, min_size=1, max_size=10),
           user=st.lists(_TOY_IDS, min_size=1, max_size=10),
           prev=st.lists(_TOY_IDS, min_size=1, max_size=20))
    def test_prefix_and_targets_are_vocabulary_gathers(self, toy_facts, template,
                                                       concepts, persona, user, prev):
        program = parse_program(template_text(template))
        ctx = EvalContext(facts=toy_facts, sets={"C": tuple(concepts), "P": tuple(persona),
                                                 "U": tuple(user), "Prev": tuple(prev)})
        vocab = prove(program, "R", Domain.vocabulary(toy_facts), ctx).dense()
        prefix = prove(program, "R", Domain.targets(prev), ctx).dense()
        targets = prove(program, "R", Domain.targets(concepts), ctx).dense()
        assert prefix.tobytes() == vocab[prev].tobytes()
        assert targets.tobytes() == vocab[concepts].tobytes()


class TestSharedMemo:
    """One memo serves every prove over one program and fact base: an entry
    is keyed by the bindings of the sets its rule reads, and holds a
    vocabulary truth, whatever the domain."""

    @settings(max_examples=100, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n_rules=st.integers(1, 4))
    def test_shared_memo_equals_fresh_proving(self, toy_facts, rnd, n_rules):
        program = parse_program(_toy_program(rnd, n_rules))
        n = len(toy_facts.vocab)

        def ids(most):
            return tuple(rnd.randrange(n) for _ in range(rnd.randint(1, most)))

        sets = {"C": ids(3), "P": ids(3), "Prev": ids(8)}
        memo: dict = {}
        for _ in range(rnd.randint(2, 6)):
            for name in rnd.sample(sorted(sets), rnd.randint(1, 3)):  # rebind some
                sets[name] = ids(8 if name == "Prev" else 3)
            domain = Domain.vocabulary(toy_facts) if rnd.random() < 0.5 else \
                Domain.targets(ids(10))
            shared = prove(program, "R", domain, EvalContext(toy_facts, dict(sets), memo))
            fresh = prove(program, "R", domain, EvalContext(toy_facts, dict(sets)))
            assert shared.dense().tobytes() == fresh.dense().tobytes()


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
        pred = ["Equal", "Edge"][int(rng.integers(2))]
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
            vector = prove(program, "R", Domain.vocabulary(facts), ctx).dense()
            scalar = np.array([prove_scalar(program, "R", w, ctx)
                               for w in range(len(facts.vocab))])
            diff = np.abs(vector - scalar).max()
            assert diff <= 1e-9, f"program:\n{source}\nmax diff {diff}"
            assert (vector >= 0).all() and (vector <= 1).all()
            checked += 1


# ---------------------------------------------------------------------------
# Bitwise differential testing against the dense prover this one replaced
#
# The dense evaluation path, kept verbatim as the oracle of the sparse one
# (names prefixed ``dense_``; the two deleted fact-base builders included):
# every connective runs over the whole domain.

def dense_equal_vector(domain, y, facts):
    """Truth values of stem-equality between each domain token and ``y``."""
    if not (0 <= y < len(facts.vocab)):
        raise ValueError(f"token id {y} outside vocabulary")
    ids = np.asarray(domain, dtype=np.int64)
    cls = facts.stems.class_of
    return (cls[ids] == cls[y]).astype(np.float64)


def dense_edge_column(facts, p):
    """Dense column ``p`` of the adjacency matrix as float64 over V."""
    out = np.zeros(len(facts.vocab), dtype=np.float64)
    lo, hi = facts._csc_indptr[p], facts._csc_indptr[p + 1]
    out[facts._csc_rows[lo:hi]] = facts._csc_vals[lo:hi]
    return out


def dense_first(children):
    """First child as float64; vector children must agree in length."""
    if not children:
        raise ValueError("connective requires at least one child")
    if len({np.shape(c) for c in children if np.ndim(c)}) > 1:
        raise ValueError("connective children differ in length")
    return np.asarray(children[0], dtype=np.float64)


def dense_sum(children):
    acc = dense_first(children)
    for c in children[1:]:
        acc = acc + c
    return acc


def dense_or_vec(children):
    """n-ary disjunction: min(1, sum of children)."""
    return np.clip(dense_sum(children), 0.0, 1.0)


def dense_and_avg_vec(children):
    """Averaging conjunction: the arithmetic mean of all children."""
    return np.clip(dense_sum(children) / len(children), 0.0, 1.0)


def dense_and_luk_vec(children):
    """Hard conjunction: left fold of max(a + b - 1, 0)."""
    acc = dense_first(children)
    for c in children[1:]:
        acc = np.maximum(acc + c - 1.0, 0.0)
    return np.clip(acc, 0.0, 1.0)


def dense_not_vec(child):
    return np.clip(1.0 - np.asarray(child, dtype=np.float64), 0.0, 1.0)


_DOMAIN_ARG = object()  # marks the position being evaluated in parallel


def dense_resolve(arg, subst):
    try:
        return subst[arg.name]
    except KeyError:
        raise R.RuleLinkError(f"unbound variable '{arg.name}'") from None


def dense_atom_vector(pred, a, b, domain, ctx):
    """Truth of one atom: a vector over the domain when an argument is the
    domain position, a scalar when both arguments are bound."""
    facts = ctx.facts
    if a is _DOMAIN_ARG and b is _DOMAIN_ARG:
        return 1.0 if pred == "Equal" else 0.0  # Edge has no self-loops
    if a is not _DOMAIN_ARG and b is not _DOMAIN_ARG:
        return float(facts.same_stem(a, b)) if pred == "Equal" else facts.edge_weight(a, b)
    other = b if a is _DOMAIN_ARG else a
    if pred == "Equal":
        return dense_equal_vector(domain.ids, other, facts)
    # Edge reads the adjacency; softness is a property of the facts.
    column = dense_edge_column(facts, other)
    return column if domain.kind == "vocab" else column[domain.ids]


def dense_eval_vector(program, expr, subst, domain, ctx, memo):
    def ev(child, inner=subst):
        return dense_eval_vector(program, child, inner, domain, ctx, memo)
    if isinstance(expr, R.Atom):
        a = dense_resolve(expr.args[0], subst)
        b = dense_resolve(expr.args[1], subst)
        return dense_atom_vector(expr.pred, a, b, domain, ctx)
    if isinstance(expr, R.Not):
        return dense_not_vec(ev(expr.child))
    if isinstance(expr, R.OrNode):
        if not expr.children:
            return 0.0
        return dense_or_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.AndAvgNode):
        return dense_and_avg_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.AndLukNode):
        if not expr.children:
            return 1.0
        return dense_and_luk_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.Quant):
        elements = ctx.bound(expr.set_name)
        if not elements:
            raise R.EmptyDomainError(expr.set_name)
        values = [ev(expr.body, {**subst, expr.var: int(tid)}) for tid in elements]
        if len(values) == 1:
            return values[0]
        return dense_or_vec(values) if expr.kind == "exists" else dense_and_avg_vec(values)
    if isinstance(expr, R.RuleRef):
        resolved = tuple(dense_resolve(arg, subst) for arg in expr.args)
        return dense_eval_rule(program, expr.rule, resolved, domain, ctx, memo)
    raise TypeError(f"unexpected node {expr!r}")


def dense_eval_rule(program, name, resolved_args, domain, ctx, memo):
    key = (name, resolved_args)
    hit = memo.get(key)
    if hit is not None:
        return hit
    rule = program.rule(name)
    subst = dict(zip(rule.params, resolved_args))
    out = dense_eval_vector(program, rule.body, subst, domain, ctx, memo)
    memo[key] = out
    return out


def dense_prove(program, rule, domain, ctx):
    """The float64 truth vector of ``rule``, one entry per domain position."""
    out = dense_eval_rule(program, rule, (_DOMAIN_ARG,), domain, ctx, {})
    return np.full(len(domain), out) if np.ndim(out) == 0 else out


def assert_canonical(truth):
    """ids strictly ascending within the domain, no value with the
    background's bits, every value finite and in [0, 1]."""
    ids, values = truth.ids, truth.values
    assert ids.dtype == np.int64 and len(ids) == len(values)
    assert (np.diff(ids) > 0).all() and ((ids >= 0) & (ids < truth.size)).all()
    background = np.float64(truth.background)
    assert not (values.view(np.uint64) == background.view(np.uint64)).any()
    for v in (np.array([background]), values):
        assert np.isfinite(v).all() and ((v >= 0.0) & (v <= 1.0)).all()


class TestDenseOracle:
    """``prove(...).dense()`` is the dense prover's vector bit for bit, and
    the truth it returns is canonical."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), toy=st.booleans())
    def test_dense_equals_the_dense_oracle_bitwise(self, toy_facts, seed, toy):
        rng = np.random.default_rng(seed)
        if toy:  # the decoder's random programs over C, P and Prev
            rnd = random.Random(seed)
            program = parse_program(_toy_program(rnd, rnd.randint(1, 4)))
            facts, n = toy_facts, len(toy_facts.vocab)
            ctx = EvalContext(facts, {name: tuple(rnd.randrange(n)
                                                  for _ in range(rnd.randint(1, size)))
                                      for name, size in (("C", 4), ("P", 4), ("Prev", 8))})
        else:
            program = parse_program(random_program_source(rng))
            facts, ctx = random_world(rng)
        n = len(facts.vocab)
        targets = Domain.targets(rng.integers(0, n, size=int(rng.integers(0, 12))))
        for domain in (Domain.vocabulary(facts), targets):
            truth = prove(program, "R", domain, ctx)
            assert isinstance(truth, Truth) and truth.size == len(domain)
            assert truth.dense().tobytes() == dense_prove(program, "R", domain, ctx).tobytes()
            assert_canonical(truth)


def assert_dense_bitwise(source, facts, sets):
    """``prove`` equals the dense prover bit for bit, on the vocabulary and
    on a target list."""
    program = parse_program(source)
    ctx = EvalContext(facts, sets)
    for domain in (Domain.vocabulary(facts), Domain.targets([3, 1, 3, 0])):
        truth = prove(program, "R", domain, ctx)
        assert truth.dense().tobytes() == dense_prove(program, "R", domain, ctx).tobytes()
        assert_canonical(truth)


REL = "Rel(x, y) :- Edge(x, y) | Equal(x, y)\n"
SOFT_GATE = "R(x) :- {} c in C, ~Y(c) ^ Rel(x, c)\nY(x) :- exists y in Prev, Equal(x, y)\n" + REL


def connected(facts, n: int) -> list[int]:
    """The first ``n`` tokens with an edge."""
    return np.flatnonzero(np.diff(facts._csc_indptr))[:n].tolist()


class TestBatchedQuantifiers:
    """A quantifier evaluates its body once for the whole set; the cases that
    batching can get wrong, each bit for bit against the dense prover."""

    @pytest.mark.parametrize("source", [
        "R(x) :- exists c in C, Rel(x, c)\n" + REL,
        "R(x) :- forall c in C, Edge(x, c) ^ ~Equal(c, x)",
        "R(x) :- forall c in C, (exists y in Prev, Edge(y, c)) | Equal(x, x) & Edge(x, x)",
        SOFT_GATE.format("forall"),
    ])
    def test_repeated_ids_within_one_set(self, toy_facts, source):
        a, b, c = connected(toy_facts, 3)
        assert_dense_bitwise(source, toy_facts, {"C": (b, a, b, b, c, a), "Prev": (c, c, a)})

    @pytest.mark.parametrize("kind", ["exists", "forall"])
    def test_a_one_element_set_gives_its_body(self, toy_facts, kind):
        (c,) = connected(toy_facts, 1)
        ctx = EvalContext(toy_facts, {"C": (c,), "Prev": (c,)})
        vocab = Domain.vocabulary(toy_facts)
        column = prove(parse_program(f"R(x) :- {kind} c in C, Edge(x, c)"), "R", vocab, ctx)
        assert column.dense().tobytes() == dense_edge_column(toy_facts, c).tobytes()
        for source in (f"R(x) :- {kind} c in C, ({kind} y in Prev, Rel(x, c) ^ Edge(c, y))\n" + REL,
                       SOFT_GATE.format(kind)):
            assert_dense_bitwise(source, toy_facts, ctx.sets)

    def test_an_isolated_element_has_no_entries(self, toy_facts):
        bos = toy_facts.vocab.id_of("<s>")
        assert not np.diff(toy_facts._csc_indptr)[bos]
        assert_dense_bitwise("R(x) :- exists c in C, Rel(x, c)\n" + REL, toy_facts, {"C": (bos,)})

    @pytest.mark.parametrize("source", [
        "R(x) :- exists c in C, forall d in C, Edge(x, c) ^ ~Edge(x, d)",
        "R(x) :- forall c in C, exists d in C, Edge(c, d) & Rel(x, d)\n" + REL,
    ])
    def test_a_quantifier_nested_over_the_same_set(self, toy_facts, source):
        concepts = connected(toy_facts, 40)
        assert len(concepts) ** 2 > P._BATCH  # the inner quantifier runs in rounds
        assert_dense_bitwise(source, toy_facts, {"C": tuple(concepts)})

    @pytest.mark.parametrize("cells", [None, 5])
    @pytest.mark.parametrize("kind", ["exists", "forall"])
    def test_zero_and_nonzero_backgrounds_in_one_fold(self, toy_facts, monkeypatch, kind, cells):
        if cells:  # a few elements' values laid out at a time
            monkeypatch.setattr(P, "_CELLS", cells)
        concepts = connected(toy_facts, 6)
        # a covered concept's element has background 0, an uncovered one's 0.5
        assert_dense_bitwise(SOFT_GATE.format(kind), toy_facts,
                             {"C": tuple(concepts), "Prev": tuple(concepts[::2])})

    @pytest.mark.parametrize("source", [
        template_text("commongen_hard"), SOFT_GATE.format("exists"), template_text("personachat"),
        "R(x) :- forall c in C, exists y in Prev, Edge(c, y)", "R(x) :- forall c in C, Edge(x, c)",
        "R(x) :- forall p in P, Edge(x, p) | (exists u in U, Edge(p, u))",
    ])
    def test_a_200_element_set_on_the_toy_world(self, toy_facts, source):
        rng = np.random.default_rng(200)
        ids = connected(toy_facts, len(toy_facts.vocab))
        sets = {name: tuple(rng.choice(ids, size).tolist())
                for name, size in (("C", 200), ("P", 200), ("U", 16), ("Prev", 16))}
        assert_dense_bitwise(source, toy_facts, sets)


class TestTruth:
    def test_repr_names_the_background_and_the_entry_count(self):
        truth = Truth(0.5, np.array([1, 3]), np.array([1.0, 0.0]), 5)
        assert repr(truth) == "Truth(background=0.5, 2 of 5 entries)"

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 40), data=st.data())
    def test_at_gathers_the_dense_vector_and_canonical_keeps_it(self, size, data):
        ids = np.array(sorted(data.draw(st.sets(st.integers(0, size - 1)))), dtype=np.int64)
        values = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.25]),
                                             min_size=len(ids), max_size=len(ids))))
        truth = Truth(data.draw(st.sampled_from([0.0, 0.5, 1.0])), ids, values, size)
        positions = data.draw(st.lists(st.integers(0, size - 1), max_size=12))
        dense = truth.dense()
        assert truth.at(positions).tobytes() == dense[positions].tobytes()
        canonical = truth.canonical()
        assert_canonical(canonical)
        assert canonical.dense().tobytes() == dense.tobytes()
