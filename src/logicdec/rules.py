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

Built-in predicates are ``Equal`` and ``Edge`` (both binary); every
other referenced name must be defined as a rule.  Reference cycles are
rejected: programs are finite trees, not fixpoints.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "Atom", "Not", "OrNode", "AndAvgNode", "AndLukNode", "Quant", "RuleRef",
    "Var", "Rule", "RuleProgram", "RuleExpr",
    "Token", "TokenKind", "RuleSyntaxError", "RuleLinkError",
    "EmptyDomainError", "UnboundSetError", "BUILTIN_PREDICATES", "MAX_NESTING",
    "tokenize", "parse_program", "pretty", "walk",
]

BUILTIN_PREDICATES = {"Equal": 2, "Edge": 2}

# Deepest nesting of '(', '~' and quantifiers in a rule's source, of the levels
# ``walk`` counts in its tree, and of those plus the rules it references:
# parsing, printing and both provers recurse per level, so a deeper rule would
# end in RecursionError.  The shipped templates nest a few levels.
MAX_NESTING = 64


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


_KEYWORDS = ("exists", "forall", "in")
_KINDS = {kind.value: kind for kind in TokenKind}  # a symbol or keyword is its own value
# Newline, blanks or comment, literal, symbol, word, or any other (illegal)
# character.  ``\w`` is exactly ``str.isalnum()`` or ``_``; a word must
# still start with a letter or ``_``, which ``_token_lines`` checks.
_TOKEN = re.compile(r"(?P<nl>\n)|(?P<skip>[ \t\r]+|#[^\n]*)|(?P<lit>[01])"
                    r"|(?P<sym>:-|[,|^&~()])|(?P<word>\w+)|.", re.DOTALL)


def _token_lines(source: str) -> Iterator[list[Token]]:
    """The tokens of each ``\\n``-separated line of ``source`` in turn, an
    empty list for a blank line; a line is lexed only when it is reached."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group == "skip":
            continue
        if group == "nl":
            yield tokens
            tokens, line, line_start = [], line + 1, m.end()
            continue
        text, col = m.group(), m.start() - line_start + 1
        if group == "lit":
            kind = TokenKind.LIT
        elif group == "sym" or text in _KEYWORDS:
            kind = _KINDS[text]
        elif group == "word" and (text[0].isalpha() or text[0] == "_"):
            kind = TokenKind.IDENT if text[0].isupper() else TokenKind.VAR
        else:
            raise RuleSyntaxError(f"illegal character {text[0]!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    yield tokens


def tokenize(source: str) -> list[Token]:
    """Lex rule text into tokens with 1-based line/column positions."""
    tokens = [tok for line in _token_lines(source) for tok in line]
    last_line = source.rfind("\n") + 1
    tokens.append(Token(TokenKind.EOF, "", source.count("\n") + 1, len(source) - last_line + 1))
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
    reference DAG, dependencies first; source order does not matter.
    ``reads`` gives each rule the sets its closure quantifies over, sorted:
    its arguments, those sets and the fact base fix its truth, so a prover
    memo keyed by them is valid for one program and one fact base.  Both
    are read-only: ``parse_program`` hands one program to every caller
    that parses the same source."""
    rules: Mapping[str, Rule]
    order: tuple[str, ...]
    reads: Mapping[str, tuple[str, ...]]

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
        self.depth = 0

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

    def nested(self, parse, opener: Token) -> RuleExpr:
        """``parse()`` one nesting level deeper, the level opened at ``opener``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RuleSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  opener.line, opener.col)
        node = parse()
        self.depth -= 1
        return node

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
            body = self.nested(self.parse_body, tok)
            return Quant(tok.text, var, set_name, body)
        return self.parse_or()

    def run(self, first: RuleExpr, parse, op: TokenKind) -> list[RuleExpr]:
        """``first`` and each ``parse()`` joined to it by the operator ``op``."""
        children = [first]
        while self.peek().kind is op:
            self.pop()
            children.append(parse())
        return children

    def parse_or(self) -> RuleExpr:
        children = self.run(self.parse_and(), self.parse_and, TokenKind.OR)
        return OrNode(tuple(children)) if len(children) > 1 else children[0]

    def parse_and(self) -> RuleExpr:
        node = self.parse_unary()
        # each run of one operator is one node; a switch of operator nests it
        while (op := self.peek().kind) in _AND_NODES:
            node = _AND_NODES[op](tuple(self.run(node, self.parse_unary, op)))
        return node

    def parse_unary(self) -> RuleExpr:
        tok = self.peek()
        if tok.kind is TokenKind.NOT:
            self.pop()
            return Not(self.nested(self.parse_unary, tok))
        return self.parse_primary()

    def parse_primary(self) -> RuleExpr:
        tok = self.peek()
        if tok.kind is TokenKind.LIT:
            self.pop()
            # Constant truth values as the empty disjunction / conjunction.
            return OrNode(()) if tok.text == "0" else AndLukNode(())
        if tok.kind is TokenKind.LP:
            self.pop()
            body = self.nested(self.parse_body, tok)
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


_CONNECTIVES = (OrNode, AndAvgNode, AndLukNode)
_AND_NODES = {TokenKind.ANDAVG: AndAvgNode, TokenKind.ANDLUK: AndLukNode}


def walk(rule: Rule) -> Iterator[tuple[RuleExpr, int, Mapping[str, Optional[str]]]]:
    """Every node of ``rule.body`` in source order, with its nesting level
    and the variables in scope, each mapped to the set it ranges over (None
    for a head parameter; a quantifier's own variable is in scope below it).

    A level is a ``~``, a quantifier, or a connective directly under another
    connective: ``A ^ B & C`` is the same tree as ``(A ^ B) & C``, so both
    count alike.  Iterative, so a tree of any depth can be walked.
    """
    stack = [(rule.body, 0, dict.fromkeys(rule.params))]
    while stack:
        node, level, scope = stack.pop()
        yield node, level, scope
        if isinstance(node, Not):
            stack.append((node.child, level + 1, scope))
        elif isinstance(node, Quant):
            stack.append((node.body, level + 1, {**scope, node.var: node.set_name}))
        elif isinstance(node, _CONNECTIVES):
            stack.extend((child, level + isinstance(child, _CONNECTIVES), scope)
                         for child in reversed(node.children))


def _link(rules: list[Rule]) -> RuleProgram:
    table: dict[str, Rule] = {}
    for rule in rules:
        if rule.name in BUILTIN_PREDICATES:
            raise RuleLinkError(f"rule '{rule.name}' redefines a built-in predicate")
        if rule.name in table:
            raise RuleLinkError(f"duplicate rule name '{rule.name}'")
        table[rule.name] = rule

    levels = dict.fromkeys(table, 0)           # deepest level of each body
    reads: dict[str, set[str]] = {name: set() for name in table}  # sets quantified over
    calls: dict[str, list[tuple[int, str]]] = {name: [] for name in table}
    for rule in rules:
        for node, level, scope in walk(rule):
            if level > MAX_NESTING:
                raise RuleLinkError(f"rule '{rule.name}' nests deeper than {MAX_NESTING} levels")
            levels[rule.name] = max(levels[rule.name], level)
            if isinstance(node, Quant):
                if node.var in scope:
                    raise RuleLinkError(f"rule '{rule.name}': quantifier variable "
                                        f"'{node.var}' shadows an enclosing binding")
                reads[rule.name].add(node.set_name)
            elif isinstance(node, Atom):
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
                calls[rule.name].append((level, node.rule))
            for arg in node.args if isinstance(node, (Atom, RuleRef)) else ():
                if arg.name not in scope:
                    raise RuleLinkError(
                        f"rule '{rule.name}': variable '{arg.name}' is neither a head "
                        f"parameter nor bound by a quantifier"
                    )

    # Topological sort; leftover nodes mean a reference cycle.  A rule's
    # depth is its nesting with each reference one level deeper than where
    # it stands plus its callee's depth: both provers recurse through it.
    # It reads its own quantifiers' sets and its callees'.
    order: list[str] = []
    depth: dict[str, int] = {}
    remaining = {name: {callee for _, callee in calls[name]} for name in table}
    while remaining:
        ready = sorted(n for n, d in remaining.items() if not d)
        if not ready:
            cycle = sorted(remaining)
            raise RuleLinkError(f"cyclic rule references among: {', '.join(cycle)}")
        for name in ready:
            depth[name] = max([levels[name]] + [level + 1 + depth[callee]
                                                for level, callee in calls[name]])
            if depth[name] > MAX_NESTING:
                raise RuleLinkError(f"rule '{name}' nests {depth[name]} levels deep through "
                                    f"its references, past the cap of {MAX_NESTING}")
            reads[name].update(*(reads[callee] for _, callee in calls[name]))
            order.append(name)
            del remaining[name]
        for d in remaining.values():
            d.difference_update(ready)

    return RuleProgram(MappingProxyType(table), tuple(order),
                       MappingProxyType({name: tuple(sorted(r)) for name, r in reads.items()}))


@lru_cache(maxsize=64)
def parse_program(source: str) -> RuleProgram:
    """Parse and link a rule program, memoised by source text (a template's
    source is the same for every instance; an error is raised again on each
    call).

    Source is line-oriented: one rule per line, ``#`` starts a comment,
    blank lines are ignored.  Forward references between rules are fine;
    cycles are not.  Error positions are lines and columns of ``source``.
    """
    rules: list[Rule] = []
    # every line break that str.splitlines knows ends a rule
    for tokens in _token_lines("\n".join(source.splitlines())):
        if tokens:
            last = tokens[-1]
            tokens.append(Token(TokenKind.EOF, "", last.line, last.col + len(last.text)))
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
        text = " | ".join(_pretty(c, _LEVEL_OR + isinstance(c, OrNode)) for c in expr.children)
        return f"({text})" if parent_level >= _LEVEL_AND or len(expr.children) == 1 else text
    if isinstance(expr, (AndAvgNode, AndLukNode)):
        if not expr.children:
            return "1" if isinstance(expr, AndLukNode) else "(1)"
        op = " ^ " if isinstance(expr, AndAvgNode) else " & "
        # a nested conjunction of either flavour must keep its parens
        text = op.join(_pretty(c, _LEVEL_AND + isinstance(c, (AndAvgNode, AndLukNode)))
                       for c in expr.children)
        return f"({text})" if parent_level >= _LEVEL_AND + 1 or len(expr.children) == 1 else text
    raise TypeError(f"unexpected node {expr!r}")


def pretty(expr: RuleExpr) -> str:
    """Render an expression in the surface syntax; re-parsing the output of a
    parsed expression reproduces the same tree."""
    return _pretty(expr, 0)


def rule_source(rule: Rule) -> str:
    return f"{rule.name}({', '.join(rule.params)}) :- {pretty(rule.body)}"
