"""Rule definition language: lexer, recursive-descent parser, linker, printer.

A rule program is a list of ``Head :- Body`` definitions over word variables,
one per line.  Grammar::

    rule    := IDENT '(' VAR (',' VAR)* ')' ':-' body
    body    := quant | or
    quant   := ('exists' | 'forall') VAR 'in' IDENT ',' body
    or      := and ('|' and)*
    and     := unary (('^' | '&') unary)*
    unary   := '~' unary | primary
    primary := IDENT '(' arg (',' arg)* ')' | '(' body ')' | '0' | '1'
    arg     := VAR

Identifiers start with an upper-case letter (rule, predicate, and set names);
variables start with a lower-case letter.  Precedence: ``~`` binds tighter
than ``^``/``&``, which bind tighter than ``|``.  Runs of one operator at the
same syntactic level collapse into a single n-ary node, so ``A ^ B ^ C`` is
one averaging node over three children while ``(A ^ B) ^ C`` keeps its
grouping.  ``0`` and ``1`` are the empty disjunction and empty hard
conjunction, the constant truth values.

Built-in predicates are ``Equal``, ``Edge`` and ``W`` (all binary); every
other referenced name must be defined as a rule.  Reference cycles are
rejected: programs are finite trees, not fixpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "Atom", "Not", "OrNode", "AndAvgNode", "AndLukNode", "Quant", "RuleRef",
    "Var", "Rule", "RuleProgram", "RuleExpr",
    "Token", "TokenKind", "RuleSyntaxError", "RuleLinkError",
    "EmptyDomainError", "UnboundSetError", "BUILTIN_PREDICATES",
    "tokenize", "parse_program", "pretty",
]

BUILTIN_PREDICATES = {"Equal": 2, "Edge": 2, "W": 2}


class RuleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class RuleLinkError(ValueError):
    pass


class EmptyDomainError(ValueError):
    def __init__(self, set_name: str):
        super().__init__(f"quantifier domain '{set_name}' is empty")
        self.set_name = set_name


class UnboundSetError(KeyError):
    def __init__(self, set_name: str):
        super().__init__(f"set '{set_name}' is not bound")
        self.set_name = set_name


# ---------------------------------------------------------------------------
# Tokens

class TokenKind(enum.Enum):
    IMPLIES = ":-"
    EXISTS = "exists"
    FORALL = "forall"
    IN = "in"
    COMMA = ","
    OR = "|"
    ANDAVG = "^"
    ANDLUK = "&"
    NOT = "~"
    LP = "("
    RP = ")"
    IDENT = "ident"
    VAR = "var"
    LIT = "lit"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int


_KEYWORDS = {"exists": TokenKind.EXISTS, "forall": TokenKind.FORALL, "in": TokenKind.IN}
_SINGLE = {
    ",": TokenKind.COMMA, "|": TokenKind.OR, "^": TokenKind.ANDAVG,
    "&": TokenKind.ANDLUK, "~": TokenKind.NOT, "(": TokenKind.LP,
    ")": TokenKind.RP,
}


def tokenize(source: str) -> list[Token]:
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


# ---------------------------------------------------------------------------
# Syntax tree

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Var, ...]


@dataclass(frozen=True)
class Not:
    child: "RuleExpr"


@dataclass(frozen=True)
class OrNode:
    children: tuple["RuleExpr", ...]


@dataclass(frozen=True)
class AndAvgNode:
    children: tuple["RuleExpr", ...]


@dataclass(frozen=True)
class AndLukNode:
    children: tuple["RuleExpr", ...]


@dataclass(frozen=True)
class Quant:
    kind: str  # "exists" | "forall"
    var: str
    set_name: str
    body: "RuleExpr"


@dataclass(frozen=True)
class RuleRef:
    rule: str
    args: tuple[Var, ...]


RuleExpr = Union[Atom, Not, OrNode, AndAvgNode, AndLukNode, Quant, RuleRef]


@dataclass(frozen=True)
class Rule:
    name: str
    params: tuple[str, ...]
    body: RuleExpr


@dataclass(frozen=True)
class RuleProgram:
    """Linked, acyclic rule set.  ``order`` is a topological order of the
    reference DAG, dependencies first; source order does not matter."""
    rules: Mapping[str, Rule]
    order: tuple[str, ...]

    def rule(self, name: str) -> Rule:
        try:
            return self.rules[name]
        except KeyError:
            raise RuleLinkError(f"unknown rule '{name}'") from None


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def pop(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise RuleSyntaxError(
                f"expected {kind.value!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        return self.pop()

    def parse_rule(self) -> Rule:
        head = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.LP)
        params = [self.expect(TokenKind.VAR).text]
        while self.peek().kind is TokenKind.COMMA:
            self.pop()
            params.append(self.expect(TokenKind.VAR).text)
        self.expect(TokenKind.RP)
        self.expect(TokenKind.IMPLIES)
        body = self.parse_body()
        tok = self.peek()
        if tok.kind is not TokenKind.EOF:
            raise RuleSyntaxError(f"unexpected {tok.text!r} after rule body", tok.line, tok.col)
        if len(set(params)) != len(params):
            raise RuleSyntaxError(f"duplicate parameter in head of '{head.text}'", head.line, head.col)
        return Rule(head.text, tuple(params), body)

    def parse_body(self) -> RuleExpr:
        tok = self.peek()
        if tok.kind in (TokenKind.EXISTS, TokenKind.FORALL):
            self.pop()
            var = self.expect(TokenKind.VAR).text
            self.expect(TokenKind.IN)
            set_name = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.COMMA)
            body = self.parse_body()
            return Quant(tok.text, var, set_name, body)
        return self.parse_or()

    def parse_or(self) -> RuleExpr:
        node = self.parse_and()
        children = None
        while self.peek().kind is TokenKind.OR:
            self.pop()
            rhs = self.parse_and()
            if children is None:
                children = [node, rhs]
            else:
                children.append(rhs)
        return OrNode(tuple(children)) if children is not None else node

    def parse_and(self) -> RuleExpr:
        node = self.parse_unary()
        run_op = None
        while self.peek().kind in (TokenKind.ANDAVG, TokenKind.ANDLUK):
            op = self.pop().kind
            rhs = self.parse_unary()
            cls = AndAvgNode if op is TokenKind.ANDAVG else AndLukNode
            if op is run_op:
                node = cls(node.children + (rhs,))  # extend current run
            else:
                node = cls((node, rhs))
                run_op = op
        return node

    def parse_unary(self) -> RuleExpr:
        tok = self.peek()
        if tok.kind is TokenKind.NOT:
            self.pop()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> RuleExpr:
        tok = self.peek()
        if tok.kind is TokenKind.LIT:
            self.pop()
            # Constant truth values as the empty disjunction / conjunction.
            return OrNode(()) if tok.text == "0" else AndLukNode(())
        if tok.kind is TokenKind.LP:
            self.pop()
            body = self.parse_body()
            self.expect(TokenKind.RP)
            return body
        if tok.kind is TokenKind.IDENT:
            self.pop()
            self.expect(TokenKind.LP)
            args: list[Var] = [Var(self.expect(TokenKind.VAR).text)]
            while self.peek().kind is TokenKind.COMMA:
                self.pop()
                args.append(Var(self.expect(TokenKind.VAR).text))
            self.expect(TokenKind.RP)
            if tok.text in BUILTIN_PREDICATES:
                return Atom(tok.text, tuple(args))
            return RuleRef(tok.text, tuple(args))
        raise RuleSyntaxError(
            f"expected an atom, '~', '(', '0' or '1', found {tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )


def _walk(expr: RuleExpr) -> Iterable[RuleExpr]:
    yield expr
    if isinstance(expr, Not):
        yield from _walk(expr.child)
    elif isinstance(expr, (OrNode, AndAvgNode, AndLukNode)):
        for child in expr.children:
            yield from _walk(child)
    elif isinstance(expr, Quant):
        yield from _walk(expr.body)


def _check_scopes(rule: Rule) -> None:
    def visit(expr: RuleExpr, bound: frozenset[str]) -> None:
        if isinstance(expr, Quant):
            if expr.var in bound:
                raise RuleLinkError(
                    f"rule '{rule.name}': quantifier variable '{expr.var}' shadows an enclosing binding"
                )
            visit(expr.body, bound | {expr.var})
        elif isinstance(expr, Not):
            visit(expr.child, bound)
        elif isinstance(expr, (OrNode, AndAvgNode, AndLukNode)):
            for child in expr.children:
                visit(child, bound)
        elif isinstance(expr, (Atom, RuleRef)):
            for arg in expr.args:
                if arg.name not in bound:
                    raise RuleLinkError(
                        f"rule '{rule.name}': variable '{arg.name}' is neither a head "
                        f"parameter nor bound by a quantifier"
                    )

    visit(rule.body, frozenset(rule.params))


def _link(rules: list[Rule]) -> RuleProgram:
    table: dict[str, Rule] = {}
    for rule in rules:
        if rule.name in BUILTIN_PREDICATES:
            raise RuleLinkError(f"rule '{rule.name}' redefines a built-in predicate")
        if rule.name in table:
            raise RuleLinkError(f"duplicate rule name '{rule.name}'")
        table[rule.name] = rule

    deps: dict[str, set[str]] = {name: set() for name in table}
    for rule in rules:
        for node in _walk(rule.body):
            if isinstance(node, Atom):
                if len(node.args) != BUILTIN_PREDICATES[node.pred]:
                    raise RuleLinkError(
                        f"rule '{rule.name}': built-in '{node.pred}' takes "
                        f"{BUILTIN_PREDICATES[node.pred]} arguments, got {len(node.args)}"
                    )
            elif isinstance(node, RuleRef):
                target = table.get(node.rule)
                if target is None:
                    raise RuleLinkError(
                        f"rule '{rule.name}' references undefined rule '{node.rule}'"
                    )
                if len(node.args) != len(target.params):
                    raise RuleLinkError(
                        f"rule '{rule.name}': '{node.rule}' takes {len(target.params)} "
                        f"arguments, got {len(node.args)}"
                    )
                deps[rule.name].add(node.rule)
        _check_scopes(rule)

    # Topological sort; leftover nodes mean a reference cycle.
    order: list[str] = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(n for n, d in remaining.items() if not d)
        if not ready:
            cycle = sorted(remaining)
            raise RuleLinkError(f"cyclic rule references among: {', '.join(cycle)}")
        for name in ready:
            order.append(name)
            del remaining[name]
        for d in remaining.values():
            d.difference_update(ready)

    return RuleProgram(rules=dict(table), order=tuple(order))


def parse_program(source: str) -> RuleProgram:
    """Parse and link a rule program.

    Source is line-oriented: one rule per line, ``#`` starts a comment,
    blank lines are ignored.  Forward references between rules are fine;
    cycles are not.
    """
    rules: list[Rule] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = tokenize(text)
        # re-base positions onto the original source line
        tokens = [Token(t.kind, t.text, lineno, t.col) for t in tokens]
        rules.append(_Parser(tokens).parse_rule())
    if not rules:
        raise RuleLinkError("program contains no rules")
    return _link(rules)


# ---------------------------------------------------------------------------
# Printer

_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3


def _pretty(expr: RuleExpr, parent_level: int) -> str:
    if isinstance(expr, Atom):
        return f"{expr.pred}({', '.join(a.name for a in expr.args)})"
    if isinstance(expr, RuleRef):
        return f"{expr.rule}({', '.join(a.name for a in expr.args)})"
    if isinstance(expr, Not):
        return "~" + _pretty(expr.child, _LEVEL_UNARY)
    if isinstance(expr, Quant):
        inner = f"{expr.kind} {expr.var} in {expr.set_name}, {_pretty(expr.body, 0)}"
        return f"({inner})" if parent_level > 0 else inner
    if isinstance(expr, OrNode):
        if not expr.children:
            return "0"
        sep = " | "
        text = sep.join(_pretty(c, _LEVEL_OR + (1 if isinstance(c, OrNode) else 0)) for c in expr.children)
        return f"({text})" if parent_level >= _LEVEL_AND or len(expr.children) == 1 else text
    if isinstance(expr, (AndAvgNode, AndLukNode)):
        if not expr.children:
            return "1" if isinstance(expr, AndLukNode) else "(1)"
        op = " ^ " if isinstance(expr, AndAvgNode) else " & "
        parts = []
        for c in expr.children:
            lvl = _LEVEL_AND
            # nested conjunction of either flavour must keep its parens
            if isinstance(c, (AndAvgNode, AndLukNode)):
                lvl = _LEVEL_AND + 1
            parts.append(_pretty(c, lvl))
        text = op.join(parts)
        return f"({text})" if parent_level >= _LEVEL_AND + 1 or len(expr.children) == 1 else text
    raise TypeError(f"unexpected node {expr!r}")


def pretty(expr: RuleExpr) -> str:
    """Render an expression in the surface syntax; re-parsing the output of a
    parsed expression reproduces the same tree."""
    return _pretty(expr, 0)


def rule_source(rule: Rule) -> str:
    return f"{rule.name}({', '.join(rule.params)}) :- {pretty(rule.body)}"
