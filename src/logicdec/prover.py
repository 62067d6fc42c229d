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
``p`` in Prev) is a scalar; an atom that reads the domain position is a
``Truth`` over the vocabulary with background 0 (``Edge(x, c)`` is column
``c`` of the adjacency, ``Equal(x, c)`` the members of ``c``'s stem class), so
no step of a proof runs over the whole vocabulary.  A connective gathers its
children's values on the union of their ids, each child's background where it
has no entry, and applies its operation to those and to the backgrounds: every
position gets the float operations of a dense evaluation, bit for bit.
Scalars broadcast, and children are summed in a left fold, so a position's
value never depends on its domain: proving a prefix or target list gives
exactly the vocabulary truth's values at those ids.  The n-ary or equals the
left fold of its binary form; the Lukasiewicz fold is associative, so the
closed form max(sum - (n-1), 0) agrees with it.  Every result is clamped to
[0, 1]; ``prove`` returns a canonical ``Truth`` over the domain's positions
(see ``truth``), whose ``dense()`` has one float64 per position.

``prove_scalar`` is the word-by-word reference implementation used as a test
oracle.  It shares no combinator code with the vector path: pure-Python
recursion, quantifiers iterated directly, facts read through scalar lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rules as R
from .kb import FactBase
from .lm import _check_token
from .truth import Truth

__all__ = [
    "Domain", "EvalContext", "Truth", "prove", "prove_scalar",
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
    domain holds every token id in order, as :meth:`vocabulary` builds it;
    a ``"targets"`` domain the caller's ids as given, which ``prove`` checks.
    """
    kind: str
    ids: Sequence[int]

    @classmethod
    def vocabulary(cls, facts: FactBase) -> "Domain":
        return cls("vocab", np.arange(len(facts.vocab), dtype=np.int64))

    @classmethod
    def targets(cls, token_ids: Sequence[int]) -> "Domain":
        return cls("targets", list(token_ids))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class EvalContext:
    """Bindings a rule needs at evaluation time.

    ``sets`` maps set names (C, P, U, Prev, ...) to token-id tuples; ``memo``,
    an optional caller-owned dict of rule truths (see ``prove``), serves every
    prove over one program and one fact base, whatever the sets or domain.
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

try:  # the ufunc that np.clip calls, without its Python-level dispatch
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


def _checked(children: Sequence) -> list:
    """The children, the first as float64; vector children must agree in length."""
    if not children:
        raise ValueError("connective requires at least one child")
    if len({np.shape(c) for c in children if np.ndim(c)}) > 1:
        raise ValueError("connective children differ in length")
    return [np.asarray(children[0], dtype=np.float64), *children[1:]]


# The kernels take floats and float64 arrays of one length, as the prover
# builds them; the public connectives check their children first.

def _sum(children: Sequence):
    acc = children[0]
    for c in children[1:]:
        acc = acc + c
    return acc


def _or(children: Sequence):
    return _clip(_sum(children), 0.0, 1.0)


def _and_avg(children: Sequence):
    return _clip(_sum(children) / len(children), 0.0, 1.0)


def _and_luk(children: Sequence):
    acc = children[0]
    for c in children[1:]:
        acc = np.maximum(acc + c - 1.0, 0.0)
    return _clip(acc, 0.0, 1.0)


def _not(children: Sequence):
    return _clip(1.0 - children[0], 0.0, 1.0)


def or_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """n-ary disjunction: min(1, sum of children)."""
    return _or(_checked(children))


def and_avg_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """Averaging conjunction: the arithmetic mean of all children."""
    return _and_avg(_checked(children))


def and_luk_vec(children: Sequence[np.ndarray]) -> np.ndarray:
    """Hard conjunction: left fold of max(a + b - 1, 0)."""
    return _and_luk(_checked(children))


def not_vec(child: np.ndarray) -> np.ndarray:
    return _not([np.asarray(child, dtype=np.float64)])


# ---------------------------------------------------------------------------
# Vectorised proving

_DOMAIN_ARG = object()  # marks the position being evaluated in parallel


def _resolve(arg: R.Var, subst: Mapping[str, object]):
    try:
        return subst[arg.name]
    except KeyError:
        raise R.RuleLinkError(f"unbound variable '{arg.name}'") from None


def _atom(pred: str, a, b, facts: FactBase):
    """Truth of one atom: a ``Truth`` over the vocabulary when an argument is
    the domain position, a scalar when both arguments are bound."""
    if a is _DOMAIN_ARG and b is _DOMAIN_ARG:
        return 1.0 if pred == "Equal" else 0.0  # Edge has no self-loops
    if a is not _DOMAIN_ARG and b is not _DOMAIN_ARG:
        # ``prove`` has checked every set binding, so Equal reads the classes unchecked
        return float(facts.stems.same_class(a, b)) if pred == "Equal" else facts.edge_weight(a, b)
    other = b if a is _DOMAIN_ARG else a
    # Edge reads the adjacency; softness is a property of the facts.
    return facts.equal_truth(other) if pred == "Equal" else facts.edge_truth(other)


def _combine(op, children: Sequence):
    """``op`` at every position of its children, scalars or ``Truth``s: on
    the union of the ``Truth``s' ids, of each child's value there (its
    background where it has no entry), and of the backgrounds elsewhere.
    A sum (or, and-avg) adds a child with background 0.0 at its own entries
    only: adding 0.0 changes no float, so the fold's bits are kept."""
    sparse = [c for c in children if isinstance(c, Truth)]
    if not sparse:
        return op(children)
    backgrounds = [c.background if isinstance(c, Truth) else c for c in children]
    if len(sparse) == 1:
        ids = sparse[0].ids
        values = op([c.values if isinstance(c, Truth) else c for c in children])
    else:
        ids = np.concatenate([t.ids for t in sparse])
        ids.sort()
        first = np.ones(len(ids), dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        ids = ids[first]
        if op is _or or op is _and_avg:
            acc = np.zeros(len(ids))
            for c in children:
                if isinstance(c, Truth) and c.background == 0.0:
                    acc[np.searchsorted(ids, c.ids)] += c.values
                else:
                    acc += c.at(ids) if isinstance(c, Truth) else c
            values = _clip(acc if op is _or else acc / len(children), 0.0, 1.0)
        else:
            values = op([c.at(ids) if isinstance(c, Truth) else c for c in children])
    return Truth(op(backgrounds), ids, values, sparse[0].size)


def _eval(program: R.RuleProgram, expr, subst, ctx: EvalContext, memo):
    def ev(child, inner=subst):
        return _eval(program, child, inner, ctx, memo)
    if isinstance(expr, R.Atom):
        a = _resolve(expr.args[0], subst)
        b = _resolve(expr.args[1], subst)
        return _atom(expr.pred, a, b, ctx.facts)
    if isinstance(expr, R.Not):
        return _combine(_not, [ev(expr.child)])
    if isinstance(expr, R.OrNode):
        if not expr.children:
            return 0.0
        return _combine(_or, [ev(c) for c in expr.children])
    if isinstance(expr, R.AndAvgNode):
        if not expr.children:
            raise ValueError("averaging conjunction with no children")
        return _combine(_and_avg, [ev(c) for c in expr.children])
    if isinstance(expr, R.AndLukNode):
        if not expr.children:
            return 1.0
        return _combine(_and_luk, [ev(c) for c in expr.children])
    if isinstance(expr, R.Quant):
        elements = ctx.bound(expr.set_name)
        if not elements:
            raise R.EmptyDomainError(expr.set_name)
        values = [ev(expr.body, {**subst, expr.var: int(tid)}) for tid in elements]
        if len(values) == 1:
            return values[0]
        return _combine(_or if expr.kind == "exists" else _and_avg, values)
    if isinstance(expr, R.RuleRef):
        resolved = tuple(_resolve(arg, subst) for arg in expr.args)
        return _eval_rule(program, expr.rule, resolved, ctx, memo)
    raise TypeError(f"unexpected node {expr!r}")


def _eval_rule(program: R.RuleProgram, name: str, resolved_args, ctx, memo: dict):
    # the arguments and the read sets' bindings fix a truth (an unbound set raises: no entry)
    key = (name, resolved_args, *(tuple(ctx.sets.get(s, ())) for s in program.reads[name]))
    hit = memo.get(key)
    if hit is not None:
        return hit
    rule = program.rule(name)
    subst = dict(zip(rule.params, resolved_args))
    out = _eval(program, rule.body, subst, ctx, memo)
    if isinstance(out, Truth):  # later proves read it
        out.ids.flags.writeable = out.values.flags.writeable = False
    memo[key] = out
    return out


def prove(program: R.RuleProgram, rule: str, domain: Domain, ctx: EvalContext) -> Truth:
    """Evaluate ``rule`` for every position of ``domain`` in parallel.

    Returns a canonical ``Truth`` over the domain's positions, with values
    in [0, 1].  Evaluations of a rule on equal arguments and bindings of
    the sets it reads (``program.reads``) share one read-only vocabulary
    truth, kept in ``ctx.memo`` if the caller gives one; a memo is valid
    for one program and one fact base, over any domain.
    """
    target = program.rule(rule)
    if len(target.params) != 1:
        raise ValueError(f"rule '{rule}' takes {len(target.params)} arguments; "
                         "a proved rule must take exactly one")
    n_vocab = len(ctx.facts.vocab)
    if domain.kind != "vocab":
        _check_token(domain.ids, n_vocab, "domain token id")
    elif len(domain) != n_vocab:
        raise ValueError("a vocabulary domain needs one position per vocabulary token")
    for name, ids in ctx.sets.items():
        _check_token(ids, n_vocab, f"set '{name}' binds token id")
    memo = {} if ctx.memo is None else ctx.memo
    out = _eval_rule(program, rule, (_DOMAIN_ARG,), ctx, memo)
    if not isinstance(out, Truth):
        return Truth(np.float64(out), _NO_IDS, _NO_VALUES, len(domain))
    if domain.kind != "vocab":  # the values at the domain's token ids
        out = Truth(out.background, np.arange(len(domain)), out.at(domain.ids), len(domain))
    return out.canonical()


_NO_IDS, _NO_VALUES = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
_NO_IDS.flags.writeable = _NO_VALUES.flags.writeable = False


# ---------------------------------------------------------------------------
# Scalar oracle (independent word-by-word implementation)

def prove_scalar(program: R.RuleProgram, rule: str, word: int,
                 ctx: EvalContext) -> float:
    """Truth value of ``rule`` for one word; the reference the vector path
    must match.  Implemented independently: no numpy, no shared
    combinators."""
    facts = ctx.facts
    _check_token((word,), len(facts.vocab))
    for name, ids in ctx.sets.items():
        _check_token(ids, len(facts.vocab), f"set '{name}' binds token id")

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
