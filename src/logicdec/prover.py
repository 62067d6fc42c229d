"""Soft-logic evaluation of linked rules over whole domains at once.

``prove`` walks the parsed rule tree bottom-up, evaluating built-in
predicates for every word of a domain in parallel and combining children with
arithmetic connectives:

    or:       min(1, sum)
    and-avg:  arithmetic mean
    and-luk:  left fold of max(a + b - 1, 0)
    not:      1 - value

Every node is evaluated for a batch of bindings at once.  A quantifier
binds its variable to the whole set and evaluates its body once, for every
element (and every binding of the enclosing quantifiers) together, then
combines each position's values over the set as a disjunction (``exists``)
or an averaging conjunction (``forall``); a one-element set gives its body's
value unchanged.  An empty set raises ``EmptyDomainError`` rather than
reading as vacuous truth: the rules assume their sets are populated, and a
silent default would hide data bugs.

An atom whose arguments are both bound (``Equal(c, p)`` with ``c`` in C and
``p`` in Prev) is a scalar per binding, one gather over the stem table or
the adjacency; an atom that reads the domain position is a ``Truth`` over
the vocabulary with background 0 per binding (``Edge(x, c)`` is column
``c`` of the adjacency, ``Equal(x, c)`` the members of ``c``'s stem class),
gathered for the whole batch at once, so no step of a proof runs over the
whole vocabulary.  A connective gathers its children's values on the union
of their ids, each child's background where it has no entry, and applies
its operation to those and to the backgrounds: every position gets the
float operations of a dense evaluation, bit for bit.  Scalars broadcast,
children are summed in a left fold, and a quantifier adds its elements'
values in set order, so a position's value never depends on its domain:
proving a prefix or target list gives exactly the vocabulary truth's values
at those ids.  The n-ary or equals the left fold of its binary form; the
Lukasiewicz fold is associative, so the closed form max(sum - (n-1), 0)
agrees with it.  Every result is clamped to [0, 1]; ``prove`` returns a
canonical ``Truth`` over the domain's positions (see ``truth``), whose
``dense()`` has one float64 per position.

``prove_scalar`` is the word-by-word reference implementation used as a test
oracle.  It shares no combinator code with the vector path: pure-Python
recursion, quantifiers iterated directly, facts read through scalar lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

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
# Batched proving
#
# ``_eval`` evaluates a node for n bindings at once.  A binding maps each
# variable in scope to a token id or to the domain position; a variable is
# the domain position in every binding of a batch or in none, so a node's
# results are all scalars, kept as a float64 array of n, or all truths over
# the vocabulary, kept as one ``_Truths``.

_DOMAIN_ARG = object()  # marks the position being evaluated in parallel
_BATCH = 1024  # bindings a quantifier expands to at once (at least one outer binding)
_CELLS = 1 << 16  # values laid out at once when a fold reads backgrounds


class _Truths(NamedTuple):
    """n truths over the V vocabulary positions: binding ``b``'s entry for
    token ``t`` has the key ``b * V + t``, the keys ascend, and ``bg[b]`` is
    binding ``b``'s background."""
    bg: np.ndarray
    keys: np.ndarray
    values: np.ndarray


def _slices(indptr: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slices ``indptr[w]:indptr[w + 1]`` for each ``w`` of ``which``, end
    to end: each entry's index into ``which``, and its position."""
    lo = indptr[which]
    size = indptr[which + 1] - lo
    end = size.cumsum()
    return np.arange(len(which)).repeat(size), np.arange(end[-1]) + (lo + size - end).repeat(size)


def _atom(pred: str, a, b, n: int, facts: FactBase):
    """One atom for n bindings, each argument an id array or the domain
    position: scalars when both are bound, else truths with background 0."""
    if a is _DOMAIN_ARG and b is _DOMAIN_ARG:
        return np.full(n, 1.0 if pred == "Equal" else 0.0)  # Edge has no self-loops
    # ``prove`` has checked every set binding, so the tables are read unchecked
    class_of = facts.stems.class_of
    if a is not _DOMAIN_ARG and b is not _DOMAIN_ARG:
        if pred == "Equal":
            return (class_of[a] == class_of[b]).astype(np.float64)
        binding, at = _slices(facts._csc_indptr, b)  # column b holds row a at most once
        hit = facts._csc_rows[at] == a[binding]
        out = np.zeros(n)
        out[binding[hit]] = facts._csc_vals[at[hit]]
        return out
    other = b if a is _DOMAIN_ARG else a
    if pred == "Equal":  # the members of other's stem class
        indptr, members = facts.stems._member_index
        binding, at = _slices(indptr, class_of[other])
        ids, values = members[at], np.ones(len(at))
    else:  # column other of the adjacency; softness is a property of the facts
        binding, at = _slices(facts._csc_indptr, other)
        ids, values = facts._csc_rows[at], facts._csc_vals[at]
    return _Truths(np.zeros(n), binding * len(facts.vocab) + ids, values)


def _at(child, keys: np.ndarray, binding: np.ndarray) -> np.ndarray:
    """``child``'s values at ``keys``, whose bindings are ``binding``: an
    entry, or its binding's background (a scalar child's value)."""
    if not isinstance(child, _Truths):
        return child[binding]
    if child.keys is keys:
        return child.values
    if not len(child.keys):
        return child.bg[binding]
    slot = child.keys.searchsorted(keys)
    out = child.values.take(slot, mode="clip")
    off = child.keys.take(slot, mode="clip") != keys
    out[off] = child.bg[binding[off]]
    return out


def _union(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, without repeats."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _connective(op, children: Sequence, v: int):
    """``op`` for each binding: on the union of its truths' ids, of each
    child's value there, and of the backgrounds elsewhere."""
    sparse = [c for c in children if isinstance(c, _Truths)]
    bg = op([c.bg if isinstance(c, _Truths) else c for c in children])
    if not sparse:
        return bg
    keys = sparse[0].keys if len(sparse) == 1 else _union(
        np.concatenate([t.keys for t in sparse]))
    binding = keys // v
    return _Truths(bg, keys, op([_at(c, keys, binding) for c in children]))


def _fold(kind: str, body, k: int, v: int):
    """``exists`` (capped sum) or ``forall`` (mean) over each run of k
    consecutive bindings of ``body``: at each position the left fold of the
    elements' values, in set order, from 0.0 for a truth's entries."""
    def close(total):
        return _clip(total if kind == "exists" else total / k, 0.0, 1.0)
    if not isinstance(body, _Truths):
        return close(body.reshape(-1, k).cumsum(axis=1)[:, -1])
    bgs = body.bg.reshape(-1, k)
    grouped = body.keys // (k * v) * v + body.keys % v  # the key in the folded batch
    keys = _union(grouped)
    slot = keys.searchsorted(grouped)
    total = np.zeros(len(keys))
    if not bgs.any():  # an element without an entry adds 0.0, which changes no float
        np.add.at(total, slot, body.values)  # in entry order: by element at each position
    else:  # each element's value at each position of its group, a block of elements at a time
        group, member, by_member = keys // v, body.keys // v % k, np.ascontiguousarray(bgs.T)
        step = max(1, _CELLS // max(len(keys), 1))
        for lo in range(0, k, step):
            rows = by_member[lo:lo + step].take(group, axis=1)
            mine = (member >= lo) & (member < lo + step)
            rows[member[mine] - lo, slot[mine]] = body.values[mine]
            for row in rows:  # element by element, every position at once
                total += row
    return _Truths(close(bgs.cumsum(axis=1)[:, -1]), keys, close(total))


def _split(out, n: int, v: int) -> list:
    """The batch's n results, in order: scalars, or read-only ``Truth``s."""
    if not isinstance(out, _Truths):
        return out.tolist()
    ids = out.keys % v
    ids.flags.writeable = out.values.flags.writeable = False
    cut = out.keys.searchsorted(np.arange(n + 1) * v).tolist()
    return [Truth(bg, ids[lo:hi], out.values[lo:hi], v)
            for bg, lo, hi in zip(out.bg.tolist(), cut, cut[1:])]


def _batch(parts: list, v: int):
    """One batch of per-binding results (scalars or ``Truth``s), in order."""
    if not isinstance(parts[0], Truth):
        return np.array(parts, dtype=np.float64)
    if len(parts) == 1:  # one binding: its keys are its ids
        return _Truths(np.array([parts[0].background]), parts[0].ids, parts[0].values)
    keys = np.concatenate([t.ids for t in parts]) + np.arange(0, len(parts) * v, v).repeat(
        [len(t.ids) for t in parts])
    return _Truths(np.array([t.background for t in parts], dtype=np.float64), keys,
                   np.concatenate([t.values for t in parts]))


_CONNECTIVES = {R.OrNode: _or, R.AndAvgNode: _and_avg, R.AndLukNode: _and_luk}


def _eval(program: R.RuleProgram, expr, subst, n: int, ctx: EvalContext, memo: dict):
    """``expr`` for the n bindings ``subst`` (a variable's id array, or the
    domain position)."""
    v = len(ctx.facts.vocab)
    if isinstance(expr, R.Atom):
        a, b = (subst[arg.name] for arg in expr.args)  # linking bound every variable
        return _atom(expr.pred, a, b, n, ctx.facts)
    if isinstance(expr, R.RuleRef):
        return _call(program, expr.rule, tuple(subst[arg.name] for arg in expr.args), n, ctx, memo)
    if isinstance(expr, R.Quant):
        elements = np.array(ctx.bound(expr.set_name), dtype=np.int64)
        if not len(elements):
            raise R.EmptyDomainError(expr.set_name)
        k, parts = len(elements), []
        step = max(1, _BATCH // k)  # outer bindings a round: the inner axis folds first
        for lo in range(0, n, step):
            m = min(step, n - lo)
            inner = {var: a if a is _DOMAIN_ARG else a[lo:lo + m].repeat(k)
                     for var, a in subst.items()}
            inner[expr.var] = np.concatenate([elements] * m)
            out = _eval(program, expr.body, inner, m * k, ctx, memo)
            out = out if k == 1 else _fold(expr.kind, out, k, v)  # one element: the body
            if m == n:  # one round
                return out
            parts += _split(out, m, v)
        return _batch(parts, v)
    if isinstance(expr, R.Not):
        return _connective(_not, [_eval(program, expr.child, subst, n, ctx, memo)], v)
    if not expr.children:  # the constants: 0 is the empty or, 1 the empty and
        return np.full(n, 0.0 if isinstance(expr, R.OrNode) else 1.0)
    return _connective(_CONNECTIVES[type(expr)],
                       [_eval(program, c, subst, n, ctx, memo) for c in expr.children], v)


def _call(program: R.RuleProgram, name: str, args: tuple, n: int, ctx: EvalContext,
          memo: dict):
    """Rule ``name`` for n bindings of its arguments.  A binding's result is
    memoised under its arguments and the bindings of the sets the rule reads
    (an unbound set raises: no entry); the misses are evaluated as one batch."""
    v, sets = len(ctx.facts.vocab), tuple(tuple(ctx.sets.get(s, ())) for s in program.reads[name])
    keys = [(name, resolved, *sets) for resolved in
            zip(*([a] * n if a is _DOMAIN_ARG else a.tolist() for a in args))]
    missing: dict = {}  # key -> its first binding
    for b, key in enumerate(keys):
        if key not in memo:
            missing.setdefault(key, b)
    if missing:
        if len(missing) < n:  # the first binding of each missing key
            at = np.fromiter(missing.values(), dtype=np.int64, count=len(missing))
            args = tuple(a if a is _DOMAIN_ARG else a[at] for a in args)
        rule = program.rule(name)
        out = _eval(program, rule.body, dict(zip(rule.params, args)), len(missing), ctx, memo)
        for key, truth in zip(missing, _split(out, len(missing), v)):
            memo[key] = truth  # later proves read it
        if len(missing) == n:  # every binding, in order
            return out
    return _batch([memo[key] for key in keys], v)


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
    out = _call(program, rule, (_DOMAIN_ARG,), 1, ctx, memo)  # a batch of one
    if not isinstance(out, _Truths):
        return Truth(out[0], _NO_IDS, _NO_VALUES, len(domain))
    out = Truth(out.bg[0], out.keys, out.values, n_vocab)
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
