import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicdec.kb import FactBase, Vocabulary
from logicdec.prover import Domain, EvalContext, prove, prove_scalar
from logicdec.rules import (MAX_NESTING, AndAvgNode, AndLukNode, Atom,
                            EmptyDomainError, Not, OrNode, Quant, RuleLinkError,
                            RuleProgram, RuleRef, RuleSyntaxError, UnboundSetError,
                            Token, TokenKind, Var, parse_program, rule_source,
                            tokenize, walk)

PROGRAM = """
R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""


def body(source, name="R"):
    return parse_program(source).rules[name].body


# The character-loop lexer that ``tokenize`` replaced, kept verbatim as the
# reference the pattern lexer is checked against.
_KEYWORDS = {"exists": TokenKind.EXISTS, "forall": TokenKind.FORALL, "in": TokenKind.IN}
_SINGLE = {
    ",": TokenKind.COMMA, "|": TokenKind.OR, "^": TokenKind.ANDAVG,
    "&": TokenKind.ANDLUK, "~": TokenKind.NOT, "(": TokenKind.LP,
    ")": TokenKind.RP,
}


def reference_tokenize(source: str) -> list[Token]:
    """Lex rule text into tokens with 1-based line/column positions."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == ":" and i + 1 < n and source[i + 1] == "-":
            tokens.append(Token(TokenKind.IMPLIES, ":-", line, start_col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in "01":
            tokens.append(Token(TokenKind.LIT, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word in _KEYWORDS:
                kind = _KEYWORDS[word]
            elif word[0].isupper():
                kind = TokenKind.IDENT
            else:
                kind = TokenKind.VAR
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        raise RuleSyntaxError(f"illegal character {ch!r}", line, start_col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


# single characters of the rule alphabet and a few others, and whole words,
# so that keywords and identifiers turn up next to anything
_LEXER_PIECES = (list(":-,|^&~()01_ xyzRSCE2@.") + ["é", "É", "²", "½", "\t", "\r", "\n", "#"]
                 + ["exists", "forall", "in", "Equal", "Edge", "x1", ":-"])


class TestLexer:
    def test_simple_rule_token_stream(self):
        toks = tokenize("R(x) :- A(x) | B(x)")
        assert [t.text for t in toks[:-1]] == [
            "R", "(", "x", ")", ":-", "A", "(", "x", ")", "|", "B", "(", "x", ")"]
        assert len(toks) - 1 == 14  # excluding the EOF marker
        assert [t.text for t in toks[-5:-1]] == ["B", "(", "x", ")"]

    def test_token_kinds(self):
        toks = tokenize("~Y(c) ^ Rel(x, c)")
        kinds = [t.kind.name for t in toks[:-1]]
        assert kinds == ["NOT", "IDENT", "LP", "VAR", "RP", "ANDAVG",
                         "IDENT", "LP", "VAR", "COMMA", "VAR", "RP"]

    def test_illegal_character_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            tokenize("R(x) :- @")
        assert err.value.col == 9
        assert err.value.line == 1

    def test_keywords_and_literals(self):
        kinds = [t.kind.name for t in tokenize("exists forall in 0 1 & :-")[:-1]]
        assert kinds == ["EXISTS", "FORALL", "IN", "LIT", "LIT", "ANDLUK", "IMPLIES"]

    def test_comments_are_skipped(self):
        assert len(tokenize("A(x) # trailing words ~ | (")) == 5  # A ( x ) EOF

    @settings(max_examples=1000, deadline=None)
    @given(source=st.lists(st.sampled_from(_LEXER_PIECES), max_size=30).map("".join))
    def test_tokens_or_error_match_the_character_loop_lexer(self, source):
        def run(lex):
            try:
                return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
            except RuleSyntaxError as exc:
                return str(exc)

        got, want = run(tokenize), run(reference_tokenize)
        last_line = source.rfind("\n") + 1
        if isinstance(want, list) and "#" in source[last_line:]:
            # The one allowed difference: after a comment on the last line,
            # the reference left the end-of-input column at the '#'.
            assert got[-1][3] == len(source) - last_line + 1
            got[-1], want[-1] = got[-1][:3], want[-1][:3]
        assert got == want


class TestParser:
    def test_disjunctive_relatedness_rule(self):
        rel = parse_program("Rel(x, c) :- Edge(x, c) | Equal(x, c)").rules["Rel"]
        assert rel.params == ("x", "c")
        assert rel.body == OrNode((Atom("Edge", (Var("x"), Var("c"))),
                                   Atom("Equal", (Var("x"), Var("c")))))

    def test_quantified_gate_rule(self):
        program = parse_program(PROGRAM)
        assert program.rules["R"].body == Quant(
            "exists", "c", "C",
            AndAvgNode((Not(RuleRef("Y", (Var("c"),))),
                        RuleRef("Rel", (Var("x"), Var("c"))))))

    def test_repeated_head_parameter_is_refused_at_the_head(self):
        with pytest.raises(RuleSyntaxError, match="duplicate parameter in head of 'R'") as info:
            parse_program("\nR(x, x) :- Edge(x, x)")
        assert (info.value.line, info.value.col) == (2, 1)

    def test_precedence_or_binds_loosest(self):
        src = "R(x) :- A(x) | B(x) & C(x)\nA(x) :- 1\nB(x) :- 1\nC(x) :- 1"
        assert parse_program(src).rules["R"].body == OrNode((
            RuleRef("A", (Var("x"),)),
            AndLukNode((RuleRef("B", (Var("x"),)), RuleRef("C", (Var("x"),)))),
        ))

    def test_all_two_operator_combinations(self):
        # hand-built reference for every (op1, op2) pair over A op1 B op2 C
        A, B, C = (RuleRef(n, (Var("x"),)) for n in "ABC")
        expected = {
            ("|", "|"): OrNode((A, B, C)),
            ("|", "^"): OrNode((A, AndAvgNode((B, C)))),
            ("|", "&"): OrNode((A, AndLukNode((B, C)))),
            ("^", "|"): OrNode((AndAvgNode((A, B)), C)),
            ("^", "^"): AndAvgNode((A, B, C)),
            ("^", "&"): AndLukNode((AndAvgNode((A, B)), C)),
            ("&", "|"): OrNode((AndLukNode((A, B)), C)),
            ("&", "^"): AndAvgNode((AndLukNode((A, B)), C)),
            ("&", "&"): AndLukNode((A, B, C)),
        }
        defs = "\nA(x) :- 1\nB(x) :- 1\nC(x) :- 1"
        for (op1, op2), tree in expected.items():
            src = f"R(x) :- A(x) {op1} B(x) {op2} C(x)" + defs
            assert parse_program(src).rules["R"].body == tree, (op1, op2)

    def test_parentheses_protect_grouping(self):
        src = "R(x) :- (A(x) ^ B(x)) ^ C(x)\nA(x) :- 1\nB(x) :- 1\nC(x) :- 1"
        A, B, C = (RuleRef(n, (Var("x"),)) for n in "ABC")
        assert parse_program(src).rules["R"].body == AndAvgNode((AndAvgNode((A, B)), C))

    def test_literals_parse_to_empty_connectives(self):
        prog = parse_program("R(x) :- Equal(x, x) ^ 0\nS(x) :- 1")
        gate = prog.rules["R"].body
        assert isinstance(gate, AndAvgNode)
        assert gate.children[1] == OrNode(())
        assert prog.rules["S"].body == AndLukNode(())

    @pytest.mark.parametrize("source, fragment", [
        ("A(x) :- B(x)", "undefined rule 'B'"),
        ("A(x) :- A2(x)\nA(x) :- 1\nA2(x) :- 1", "duplicate rule name"),
        ("A(x) :- Equal(x, x, x)", "takes 2 arguments"),
        ("A(x) :- Equal(x, z)", "neither a head parameter nor bound"),
        ("Equal(x) :- 1", "redefines a built-in"),
        ("A(x) :- B(x, x)\nB(y) :- 1", "takes 1 arguments"),
        # several errors in one rule: the first in source order is reported
        ("A(x) :- Equal(x, z) | B(x)", "variable 'z' is neither"),
        ("A(x) :- (exists x in C, 1) ^ Equal(x, x, x)", "'x' shadows"),
    ])
    def test_link_errors(self, source, fragment):
        with pytest.raises(RuleLinkError, match=fragment):
            parse_program(source)

    @pytest.mark.parametrize("source", [
        "A(x) :- B(x)\nB(x) :- A(x)",
        "A(x) :- A(x)",
        "A(x) :- B(x)\nB(x) :- C(x)\nC(x) :- A(x)",
        "A(x) :- exists c in S, B(c) ^ Equal(x, c)\nB(x) :- ~C(x)\nC(x) :- A(x)",
    ])
    def test_cycles_rejected(self, source):
        with pytest.raises(RuleLinkError, match="cyclic"):
            parse_program(source)

    def test_generated_cyclic_programs_rejected(self):
        import random
        rnd = random.Random(9)
        for _ in range(25):
            n = rnd.randint(2, 6)
            names = [f"G{i}" for i in range(n)]
            lines = [f"{names[i]}(x) :- {names[(i + 1) % n]}(x)" for i in range(n)]
            # pad with harmless acyclic rules and shuffle
            lines += [f"H{i}(x) :- Equal(x, x)" for i in range(rnd.randint(0, 3))]
            rnd.shuffle(lines)
            with pytest.raises(RuleLinkError, match="cyclic"):
                parse_program("\n".join(lines))

    def test_syntax_error_reports_position_and_expectation(self):
        with pytest.raises(RuleSyntaxError, match="expected"):
            parse_program("A(x) :- Equal(x x)")

    @pytest.mark.parametrize("indent", ["    ", "\t", " \t "])
    @pytest.mark.parametrize("rule, col", [("R(x) :- @", 9), ("R(x) :- Equal(x x)", 17),
                                           ("R(x) :- (1  # open", 11)])
    def test_error_position_is_in_the_source_line(self, indent, rule, col):
        with pytest.raises(RuleSyntaxError) as err:
            parse_program("S(x) :- 1\n" + indent + rule)
        assert (err.value.line, err.value.col) == (2, len(indent) + col)

    def test_walk_yields_levels_and_scopes_in_source_order(self):
        rule = parse_program("R(x) :- exists c in C, ~Edge(x, c) ^ (Equal(x, c) & 1)").rules["R"]
        outer, inner = {"x": None}, {"x": None, "c": "C"}
        assert [(type(node).__name__, level, scope) for node, level, scope in walk(rule)] == [
            ("Quant", 0, outer), ("AndAvgNode", 1, inner), ("Not", 1, inner),
            ("Atom", 2, inner), ("AndLukNode", 2, inner), ("Atom", 2, inner),
            ("AndLukNode", 3, inner)]

    def test_dependency_order_is_topological(self):
        program = parse_program(PROGRAM)
        order = program.order
        assert order.index("Rel") < order.index("R")
        assert order.index("Y") < order.index("R")

    def test_reads_are_the_sets_quantified_over_in_the_closure(self):
        program = parse_program("""
R(x) :- A(x) | (exists c in C, Edge(x, c))
A(x) :- B(x, x) ^ (forall p in P, Equal(x, p))
B(x, y) :- exists q in Prev, Edge(y, q)
N(x) :- Equal(x, x) | ~Edge(x, x)
M(x) :- N(x) & 1
""")
        # a callee's sets propagate to every caller; no quantifier reads nothing
        assert dict(program.reads) == {"R": ("C", "P", "Prev"), "A": ("P", "Prev"),
                                       "B": ("Prev",), "N": (), "M": ()}
        with pytest.raises(TypeError):
            program.reads["N"] = ("C",)


class TestParseMemo:
    def test_one_source_gives_one_program(self):
        assert parse_program(PROGRAM) is parse_program(PROGRAM)
        assert parse_program(PROGRAM + "\n") == parse_program(PROGRAM)

    def test_an_error_is_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(RuleSyntaxError, match="expected"):
                parse_program("A(x) :- Equal(x x)")
        for _ in range(3):
            with pytest.raises(RuleLinkError, match="cyclic"):
                parse_program("A(x) :- A(x)")

    def test_a_shared_program_cannot_be_changed(self):
        program = parse_program(PROGRAM)
        with pytest.raises(TypeError):
            program.rules["R"] = program.rules["Y"]
        with pytest.raises(TypeError):
            del program.rules["R"]
        assert parse_program(PROGRAM).rules["R"].name == "R"


class TestExpansion:
    """A quantifier evaluates as its expansion over the bound set: ``exists``
    as the disjunction of its instances, ``forall`` as their mean."""

    # word 0 relates to words 1, 2 and 3 with soft weights; 4 relates to none
    VOCAB = Vocabulary(["dog", "park", "ball", "leash", "piano"])
    FACTS = FactBase.from_edges(VOCAB, [(0, 1, 0.5), (0, 2, 0.375), (0, 3, 0.25),
                                        (1, 2, 0.125)], mode="soft")

    def prove_all(self, source, **sets):
        ctx = EvalContext(facts=self.FACTS, sets={k: tuple(v) for k, v in sets.items()})
        return prove(parse_program(source), "A", Domain.vocabulary(self.FACTS), ctx).dense()

    def edge(self, a, b):
        return self.FACTS.edge_weight(a, b)

    def test_exists_becomes_disjunction(self):
        out = self.prove_all("A(x) :- exists c in S, Edge(x, c)", S=[1, 2, 3])
        # the capped sum: 0.5 + 0.375 + 0.25 caps at 1 for word 0
        assert out[0] == 1.0
        assert out[1] == self.edge(1, 2)
        assert out[4] == 0.0
        out = self.prove_all("A(x) :- exists c in S, Edge(x, c)", S=[2, 3])
        assert out[0] == 0.375 + 0.25

    def test_forall_becomes_single_nary_average(self):
        out = self.prove_all("A(x) :- forall c in S, Edge(x, c)", S=[1, 2, 3])
        assert out[0] == (0.5 + 0.375 + 0.25) / 3
        assert out[1] == self.edge(1, 2) / 3
        assert out[4] == 0.0

    def test_singleton_collapses(self):
        for kind in ("exists", "forall"):
            out = self.prove_all(f"A(x) :- {kind} c in S, Edge(x, c)", S=[2])
            column = np.array([self.edge(x, 2) for x in range(len(self.VOCAB))])
            assert out.tobytes() == column.tobytes()

    def test_empty_domain_is_an_error(self):
        with pytest.raises(EmptyDomainError):
            self.prove_all("A(x) :- exists p in P, Edge(x, p)", P=[])

    def test_unbound_set_is_an_error(self):
        with pytest.raises(UnboundSetError):
            self.prove_all("A(x) :- exists p in P, Edge(x, p)", Q=[1])

    def test_nested_quantifiers_expand(self):
        out = self.prove_all(
            "A(x) :- exists p in P, (forall q in Q, Edge(x, q) | Equal(p, q))",
            P=[1, 4], Q=[1, 2])
        for x in range(len(self.VOCAB)):
            expected = min(1.0, sum(
                sum(min(1.0, self.edge(x, q) + (p == q)) for q in (1, 2)) / 2
                for p in (1, 4)))
            assert out[x] == pytest.approx(expected, abs=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)",
        "Rel(x, y) :- Edge(x, y) | Equal(x, y)",
        "Y(x) :- exists y in Prev, Equal(x, y)",
        "R(x) :- Persona(x) | Common(x)",
        "Common(x) :- (exists p in P, Edge(x, p)) ^ (exists u in U, Edge(x, u))",
        "A(x) :- ~(Equal(x, x) | Edge(x, x)) & Edge(x, x)",
        "A(x) :- Equal(x, x) ^ Equal(x, x) ^ Equal(x, x)",
        "A(x) :- (Equal(x, x) ^ Equal(x, x)) ^ Equal(x, x)",
        "A(x) :- forall c in C, Edge(x, c) | 0",
        "A(x) :- 1 & ~Edge(x, x)",
    ])
    def test_pretty_print_reparses_identically(self, source):
        name = source.split("(", 1)[0]
        stubs = "".join(f"\n{stub}" for stub in
                        ("Y(v) :- 1", "Rel(v, w) :- 1", "Persona(v) :- 1", "Common(v) :- 1")
                        if not stub.startswith(name + "("))
        program = parse_program(source + stubs)
        printed = rule_source(program.rules[name]) + stubs
        reparsed = parse_program(printed)
        assert reparsed.rules[name] == program.rules[name]


def nested(opener: str, depth: int) -> str:
    """A one-rule program with ``depth`` levels of ``opener`` ('(', '~' or
    'exists') around one atom, or ('^&') an alternating run of ``depth + 1``
    operators, which nests the tree one level per switch."""
    if opener == "^&":
        return "R(x) :- Equal(x, x)" + "".join(f" {opener[i % 2]} Equal(x, x)"
                                              for i in range(depth + 1))
    if opener == "(":
        return "R(x) :- " + "(" * depth + "Equal(x, x)" + ")" * depth
    if opener == "~":
        return "R(x) :- " + "~" * depth + "Equal(x, x)"
    return "R(x) :- " + "".join(f"exists v{i} in C, " for i in range(depth)) + "Edge(x, v0)"


_RULE_TOKENS = ["R", "S", "Equal", "Edge", "x", "y", "C", "(", ")", ",", ":-",
                "|", "^", "&", "~", "exists", "forall", "in", "0", "1", "\n", "#"]


@st.composite
def rule_sources(draw):
    """Random token runs, or a deep nest at, just past or far past the cap
    with a few random tokens spliced in."""
    if draw(st.booleans()):
        return " ".join(draw(st.lists(st.sampled_from(_RULE_TOKENS), max_size=40)))
    depth = draw(st.sampled_from([MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1,
                                  20 * MAX_NESTING]))
    words = nested(draw(st.sampled_from(["(", "~", "exists", "^&"])), depth).split(" ")
    for _ in range(draw(st.integers(0, 3))):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_RULE_TOKENS)))
    return " ".join(words)


class TestNesting:
    VOCAB = Vocabulary(["dog", "park", "ball"])
    FACTS = FactBase.from_edges(VOCAB, [(0, 1, 0.5), (1, 2, 0.25)], mode="soft")

    @pytest.mark.parametrize("opener", ["(", "~", "exists"])
    def test_cap_is_usable_and_one_more_level_is_a_syntax_error(self, opener):
        program = parse_program(nested(opener, MAX_NESTING))
        # every recursive consumer of the tree handles the deepest legal rule
        assert parse_program(rule_source(program.rules["R"])) == program
        # one element in C: nested quantifiers multiply the work by |C| per level
        ctx = EvalContext(facts=self.FACTS, sets={"C": (1,)})
        vector = prove(program, "R", Domain.vocabulary(self.FACTS), ctx).dense()
        assert [prove_scalar(program, "R", w, ctx) for w in range(3)] == vector.tolist()
        for depth in (MAX_NESTING + 1, 20 * MAX_NESTING):
            line = nested(opener, depth)
            with pytest.raises(RuleSyntaxError, match="nesting deeper than") as err:
                parse_program("# deep\n" + line)
            assert err.value.line == 2
            # the error points at the opener of the first level past the cap
            body_start = line.index(":-") + 3
            openers = [i for i in range(body_start, len(line)) if line.startswith(opener, i)]
            assert err.value.col == openers[MAX_NESTING] + 1

    @pytest.mark.parametrize("step", ["", "~"])
    def test_reference_chain_at_the_cap_links_and_deeper_is_a_link_error(self, step):
        def chain(n: int) -> str:
            """R0(x) :- R1(x), ..., Rn(x) :- Equal(x, x), with ``step``
            before each reference."""
            return "\n".join([f"R{i}(x) :- {step}R{i + 1}(x)" for i in range(n)]
                             + [f"R{n}(x) :- Equal(x, x)"])

        # a reference is one level, and a '~' before it one more
        at_cap = MAX_NESTING // (1 + len(step))
        program = parse_program(chain(at_cap))
        ctx = EvalContext(facts=self.FACTS, sets={})
        vector = prove(program, "R0", Domain.vocabulary(self.FACTS), ctx).dense()
        assert [prove_scalar(program, "R0", w, ctx) for w in range(3)] == vector.tolist()
        # the provers overflowed the stack from about 600 references on
        for n in (at_cap + 1, 600, 20 * MAX_NESTING):
            with pytest.raises(RuleLinkError, match="past the cap"):
                parse_program(chain(n))

    def test_alternating_run_at_the_cap_links_and_longer_is_a_link_error(self):
        program = parse_program(nested("^&", MAX_NESTING))
        assert parse_program(rule_source(program.rules["R"])) == program
        ctx = EvalContext(facts=self.FACTS, sets={})
        vector = prove(program, "R", Domain.vocabulary(self.FACTS), ctx).dense()
        assert [prove_scalar(program, "R", w, ctx) for w in range(3)] == vector.tolist()
        # 1000 operators ended in RecursionError
        for depth in (MAX_NESTING + 1, 999, 20 * MAX_NESTING):
            with pytest.raises(RuleLinkError, match=f"nests deeper than {MAX_NESTING} levels"):
                parse_program(nested("^&", depth))

    @pytest.mark.parametrize("op, node", [("^", AndAvgNode), ("&", AndLukNode)])
    def test_a_long_run_of_one_operator_is_one_node(self, op, node):
        # the run is collected once, not copied at each operator
        n = 32 * 1024
        program = parse_program("R(x) :- " + f" {op} ".join(["Equal(x, x)"] * (n + 1)))
        body = program.rules["R"].body
        assert type(body) is node and len(body.children) == n + 1

    @settings(max_examples=300, deadline=None)
    @given(source=rule_sources())
    @example(source=nested("^&", 20 * MAX_NESTING))
    def test_any_source_parses_or_raises_a_named_error(self, source):
        try:
            result = parse_program(source)
        except (RuleSyntaxError, RuleLinkError):
            return
        assert isinstance(result, RuleProgram)
        # what links is shallow enough for the recursive printer and parser
        printed = "\n".join(rule_source(rule) for rule in result.rules.values())
        assert parse_program(printed) == result
