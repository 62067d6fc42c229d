"""Soft-logic evaluation of linked rules over whole domains at once.

``prove`` walks the parsed rule tree bottom-up, evaluating built-in
predicates for every word of a domain in parallel and combining children with
arithmetic connectives:

    or:       min(1, sum)
    and-avg:  arithmetic mean
    and-luk:  left fold of max(a + b - 1, 0)
    not:      1 - value

A quantifier is evaluated in place: its body once per element of the bound
set, combined as a disjunction (``exists``) or an averaging conjunction
(``forall``); a one-element set gives its body's value unchanged.  An empty
set raises ``EmptyDomainError`` rather than reading as vacuous truth: the
rules assume their sets are populated, and a silent default would hide data
bugs.

An atom whose arguments are both bound (``Equal(c, p)`` with ``c`` in C and
``p`` in Prev) is a scalar; only atoms that read the domain position build a
vector (``Edge(x, c)`` reads column ``c`` of the adjacency).  Connectives
broadcast scalars against vectors and sum children in a left fold, so a
position's value never depends on its domain: proving a prefix or target list
gives exactly the vocabulary vector's entries at those ids.  The n-ary or
equals the left fold of its binary form; the Lukasiewicz fold is associative,
so the closed form max(sum - (n-1), 0) agrees with it.  Every result is
clamped to [0, 1]; ``prove`` returns one float64 per domain position.

``prove_scalar`` is the word-by-word reference implementation used as a test
oracle.  It shares no combinator code with the vector path: pure-Python
recursion, quantifiers iterated directly, facts read through scalar lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rules as R
from .kb import FactBase, equal_vector

__all__ = [
    "Domain", "EvalContext", "prove", "prove_scalar",
    "or_vec", "and_avg_vec", "and_luk_vec", "not_vec",
]


# ---------------------------------------------------------------------------
# Domains and contexts

@dataclass(frozen=True)
class Domain:
    """An ordered evaluation domain: one token id per position.

    ``kind`` records what the positions mean (the whole vocabulary, or a
    list of token ids such as target words or a generated prefix); repeated
    ids are distinct positions with equal truth values.  A ``"vocab"``
    domain holds every token id in order, as :meth:`vocabulary` builds it.
    """
    kind: str
    ids: np.ndarray

    @classmethod
    def vocabulary(cls, facts: FactBase) -> "Domain":
        return cls("vocab", np.arange(len(facts.vocab), dtype=np.int64))

    @classmethod
    def targets(cls, token_ids: Sequence[int]) -> "Domain":
        return cls("targets", np.asarray(token_ids, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class EvalContext:
    """Bindings a rule needs at evaluation time.

    ``sets`` maps set names (C, P, U, Prev, ...) to token-id tuples; ``memo``
    is an optional caller-owned ``(rule, args) -> truth`` dict (see ``prove``).
    """
    facts: FactBase
    sets: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    memo: Optional[dict] = None

    def bound(self, name: str) -> tuple[int, ...]:
        if name not in self.sets:
            raise R.UnboundSetError(name)
        return tuple(self.sets[name])


# ---------------------------------------------------------------------------
# Vector connectives

def _first(children: Sequence) -> np.ndarray:
    """First child as float64; vector children must agree in length."""
    if not children:
        raise ValueError("connective requires at least one child")
    if len({np.shape(c) for c in children if np.ndim(c)}) > 1:
        raise ValueError("connective children differ in length")
    return np.asarray(children[0], dtype=np.float64)


def _sum(children: Sequence) -> np.ndarray:
    acc = _first(children)
    for c in children[1:]:
        acc = acc + c
    return acc


def or_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """n-ary disjunction: min(1, sum of children)."""
    return np.clip(_sum(children), 0.0, 1.0)


def and_avg_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """Averaging conjunction: the arithmetic mean of all children."""
    return np.clip(_sum(children) / len(children), 0.0, 1.0)


def and_luk_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """Hard conjunction: left fold of max(a + b - 1, 0)."""
    acc = _first(children)
    for c in children[1:]:
        acc = np.maximum(acc + c - 1.0, 0.0)
    return np.clip(acc, 0.0, 1.0)


def not_vec(child: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - np.asarray(child, dtype=np.float64), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Vectorised proving

_DOMAIN_ARG = object()  # marks the position being evaluated in parallel


def _resolve(arg: R.Var, subst: Mapping[str, object]):
    try:
        return subst[arg.name]
    except KeyError:
        raise R.RuleLinkError(f"unbound variable '{arg.name}'") from None


def _atom_vector(pred: str, a, b, domain: Domain, ctx: EvalContext):
    """Truth of one atom: a vector over the domain when an argument is the
    domain position, a scalar when both arguments are bound."""
    facts = ctx.facts
    if a is _DOMAIN_ARG and b is _DOMAIN_ARG:
        return 1.0 if pred == "Equal" else 0.0  # Edge has no self-loops
    if a is not _DOMAIN_ARG and b is not _DOMAIN_ARG:
        return float(facts.same_stem(a, b)) if pred == "Equal" else facts.edge_weight(a, b)
    other = b if a is _DOMAIN_ARG else a
    if pred == "Equal":
        return equal_vector(domain.ids, other, facts)
    # Edge reads the adjacency; softness is a property of the facts.
    column = facts.edge_column(other)
    return column if domain.kind == "vocab" else column[domain.ids]


def _eval_vector(program: R.RuleProgram, expr, subst, domain: Domain, ctx: EvalContext, memo):
    def ev(child, inner=subst):
        return _eval_vector(program, child, inner, domain, ctx, memo)
    if isinstance(expr, R.Atom):
        a = _resolve(expr.args[0], subst)
        b = _resolve(expr.args[1], subst)
        return _atom_vector(expr.pred, a, b, domain, ctx)
    if isinstance(expr, R.Not):
        return not_vec(ev(expr.child))
    if isinstance(expr, R.OrNode):
        if not expr.children:
            return 0.0
        return or_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.AndAvgNode):
        return and_avg_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.AndLukNode):
        if not expr.children:
            return 1.0
        return and_luk_vec([ev(c) for c in expr.children])
    if isinstance(expr, R.Quant):
        elements = ctx.bound(expr.set_name)
        if not elements:
            raise R.EmptyDomainError(expr.set_name)
        values = [ev(expr.body, {**subst, expr.var: int(tid)}) for tid in elements]
        if len(values) == 1:
            return values[0]
        return or_vec(values) if expr.kind == "exists" else and_avg_vec(values)
    if isinstance(expr, R.RuleRef):
        resolved = tuple(_resolve(arg, subst) for arg in expr.args)
        return _eval_rule(program, expr.rule, resolved, domain, ctx, memo)
    raise TypeError(f"unexpected node {expr!r}")


def _eval_rule(program: R.RuleProgram, name: str, resolved_args, domain, ctx, memo: dict):
    key = (name, resolved_args)
    hit = memo.get(key)
    if hit is not None:
        return hit
    rule = program.rule(name)
    subst = dict(zip(rule.params, resolved_args))
    out = _eval_vector(program, rule.body, subst, domain, ctx, memo)
    memo[key] = out
    return out


def prove(program: R.RuleProgram, rule: str, domain: Domain,
          ctx: EvalContext) -> np.ndarray:
    """Evaluate ``rule`` for every position of ``domain`` in parallel.

    Returns a float64 truth vector in [0, 1] with one entry per domain
    position.  Repeated (rule, argument) evaluations share one result, kept
    in ``ctx.memo`` if the caller gives one (vocabulary domains only).
    """
    target = program.rule(rule)
    if len(target.params) != 1:
        raise ValueError(f"rule '{rule}' takes {len(target.params)} arguments; "
                         "a proved rule must take exactly one")
    n_vocab = len(ctx.facts.vocab)
    if len(domain) and (domain.ids.min() < 0 or domain.ids.max() >= n_vocab):
        raise ValueError("domain contains token ids outside the fact-base vocabulary")
    for name, ids in ctx.sets.items():
        for tid in ids:
            if not (0 <= tid < n_vocab):
                raise ValueError(f"set '{name}' binds token id {tid} outside the vocabulary")
    if ctx.memo is not None and domain.kind != "vocab":
        raise ValueError("a caller-owned memo needs the vocabulary domain")
    memo = {} if ctx.memo is None else ctx.memo
    out = _eval_rule(program, rule, (_DOMAIN_ARG,), domain, ctx, memo)
    return np.full(len(domain), out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Scalar oracle (independent word-by-word implementation)

def prove_scalar(program: R.RuleProgram, rule: str, word: int,
                 ctx: EvalContext) -> float:
    """Truth value of ``rule`` for one word; the reference the vector path
    must match.  Implemented independently: no numpy, no shared
    combinators."""
    facts = ctx.facts
    if not (0 <= word < len(facts.vocab)):
        raise ValueError(f"token id {word} outside vocabulary")

    def clamp(v: float) -> float:
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)

    def atom_value(pred: str, a: int, b: int) -> float:
        if pred == "Equal":
            return 1.0 if facts.same_stem(a, b) else 0.0
        if a == b:
            return 0.0
        return facts.edge_weight(a, b)

    def ev(expr, env: dict) -> float:
        if isinstance(expr, R.Atom):
            return atom_value(expr.pred, env[expr.args[0].name], env[expr.args[1].name])
        if isinstance(expr, R.Not):
            return clamp(1.0 - ev(expr.child, env))
        if isinstance(expr, R.OrNode):
            acc = 0.0
            for child in expr.children:
                acc = min(1.0, acc + ev(child, env))
            return clamp(acc)
        if isinstance(expr, R.AndAvgNode):
            if not expr.children:
                raise ValueError("averaging conjunction with no children")
            total = 0.0
            for child in expr.children:
                total += ev(child, env)
            return clamp(total / len(expr.children))
        if isinstance(expr, R.AndLukNode):
            if not expr.children:
                return 1.0
            vals = [ev(child, env) for child in expr.children]
            acc = vals[0]
            for v in vals[1:]:
                acc = max(acc + v - 1.0, 0.0)
            return clamp(acc)
        if isinstance(expr, R.Quant):
            elements = ctx.bound(expr.set_name)
            if not elements:
                raise R.EmptyDomainError(expr.set_name)
            values = []
            for tid in elements:
                inner = dict(env)
                inner[expr.var] = int(tid)
                values.append(ev(expr.body, inner))
            if expr.kind == "exists":
                acc = 0.0
                for v in values:
                    acc = min(1.0, acc + v)
                return clamp(acc)
            return clamp(sum(values) / len(values))
        if isinstance(expr, R.RuleRef):
            target = program.rule(expr.rule)
            inner = {param: env[arg.name] for param, arg in zip(target.params, expr.args)}
            return ev(target.body, inner)
        raise TypeError(f"unexpected node {expr!r}")

    top = program.rule(rule)
    if len(top.params) != 1:
        raise ValueError(f"rule '{rule}' takes {len(top.params)} arguments; "
                         "a proved rule must take exactly one")
    return ev(top.body, {top.params[0]: int(word)})
