"""Constrained beam search: per-hypothesis rule evaluation, distribution
shifting, coverage tracking, grouping, and pruning.

Each step, every live hypothesis expands its top candidates from its shifted
next-token log-scores ``pre_activation(p, I, alpha3)``.  Candidates are
pruned relative to the best candidate of the step (keep those within a
``prune_ratio`` fraction of the best likelihood) and grouped by their
covered-concept bitmask; at most ``max_groups`` groups stay, the
most-covered one always among them.  The next beam takes, in this order and
up to ``beam_size``: the best candidate of each group, most-covered groups
first; then the next ``group_budget - 1`` of each group by global score;
then the rest by global score.

Each hypothesis step proves at most once: the vocabulary truth vector under
the hypothesis's own prefix.  The attention hooks' prefix and target truth
values are gathers of it, since an atom reads only the token id at a
position.  When static analysis shows the rules depend on the prefix only
through stem-equality coverage of the constraint set (the shipped lexical
templates do), the vector is memoised on the coverage bitmask; rules that
never mention the prefix are proved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rules as R
# decide is not called here; the benchmark's tracer patches this name
from .decision import SCORE_FLOOR, decide, pre_activation  # noqa: F401
from .kb import FactBase
from .lm import Scorer
from .prover import Domain, EvalContext, prove
from .transformer import AttentionHookBundle

__all__ = [
    "Hypothesis", "DecodingConfig", "DecodeResult", "PRESETS",
    "decode", "plain_beam_search", "coverage_table", "coverage_of",
]


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    logp: float
    covered: int = 0           # bitmask over the constraint set
    finished: bool = False


@dataclass(frozen=True)
class DecodingConfig:
    beam_size: int = 20
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    prune_ratio: float = 1e-9          # rho, in (0, 1]
    group_budget: int = 16             # k, per-group retention
    max_groups: int = 64               # cap: k * live groups <= k * max_groups
    max_length: int = 32               # generated tokens, prompt excluded
    bos_id: int = 0
    eos_id: Optional[int] = None
    length_norm_power: float = 0.7

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam size must be >= 1")
        if not (0.0 < self.prune_ratio <= 1.0):
            raise ValueError("prune ratio must lie in (0, 1]")
        if self.group_budget < 1:
            raise ValueError("per-group budget must be >= 1")
        if self.max_groups < 1:
            raise ValueError("group cap must be >= 1")
        for name in ("alpha1", "alpha2", "alpha3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


# The two hyperparameter sets shipped as named presets: (alpha1, alpha2,
# alpha3, rho, k, beam).
PRESETS: dict[str, DecodingConfig] = {
    "commongen": DecodingConfig(beam_size=20, alpha1=12.0, alpha2=24.0,
                                alpha3=24.0, prune_ratio=0.6, group_budget=16),
    "personachat": DecodingConfig(beam_size=10, alpha1=12.0, alpha2=24.0,
                                  alpha3=48.0, prune_ratio=0.4, group_budget=8),
}


@dataclass
class DecodeResult:
    hypotheses: list[Hypothesis]
    completed: bool                     # False when nothing finished in time
    steps: int = 0
    trace: list = field(default_factory=list)

    @property
    def best(self) -> Hypothesis:
        return self.hypotheses[0]


# ---------------------------------------------------------------------------
# Constraint state

def coverage_table(concepts: Sequence[int], facts: FactBase) -> dict[int, int]:
    """Stem class -> bits of the concepts in it: consuming ``tok`` updates a
    coverage mask as ``mask | table.get(class_of[tok], 0)``."""
    table: dict[int, int] = {}
    for i, cid in enumerate(concepts):
        cls = int(facts.stems.class_of[cid])
        table[cls] = table.get(cls, 0) | 1 << i
    return table


def coverage_of(hyp: Hypothesis, concepts: Sequence[int]) -> float:
    if not concepts:
        return 1.0
    return bin(hyp.covered & ((1 << len(concepts)) - 1)).count("1") / len(concepts)


# ---------------------------------------------------------------------------
# Prefix-dependence analysis for truth-vector memoisation

def _prefix_dependence(program: R.RuleProgram, rule: str) -> str:
    """Classify how the rule closure depends on the generated prefix.

    Returns ``"none"`` (prefix never referenced), ``"coverage"`` (prefix
    enters only through probes ``Y(x) :- exists y in Prev, Equal(x, y)``
    applied to elements of the concept set, so the coverage bitmask
    determines the truth vector), or ``"full"`` (re-prove every step).  One
    walk over the reachable rule bodies, tracking the set each quantified
    variable ranges over.
    """
    def is_probe(r: R.Rule) -> bool:
        q = r.body
        return (len(r.params) == 1 and isinstance(q, R.Quant) and q.kind == "exists"
                and q.set_name == "Prev" and isinstance(q.body, R.Atom)
                and q.body.pred == "Equal"
                and {a.name for a in q.body.args} == {r.params[0], q.var})

    if is_probe(program.rule(rule)):
        return "full"  # its argument is the domain position, not a concept
    result = "none"
    seen = {rule}
    stack = [(program.rule(rule).body, {})]  # (expr, variable -> set name)
    while stack:
        expr, sets = stack.pop()
        if isinstance(expr, R.Quant):
            if expr.set_name == "Prev":
                return "full"
            stack.append((expr.body, {**sets, expr.var: expr.set_name}))
        elif isinstance(expr, R.Not):
            stack.append((expr.child, sets))
        elif isinstance(expr, (R.OrNode, R.AndAvgNode, R.AndLukNode)):
            stack.extend((child, sets) for child in expr.children)
        elif isinstance(expr, R.RuleRef):
            callee = program.rule(expr.rule)
            if is_probe(callee):
                if any(sets.get(a.name) != "C" for a in expr.args):
                    return "full"
                result = "coverage"
            elif expr.rule not in seen:
                seen.add(expr.rule)
                stack.append((callee.body, {}))
    return result


# ---------------------------------------------------------------------------
# Decoding

@dataclass
class _Live:
    hyp: Hypothesis
    session: object
    scores: np.ndarray      # shifted next-token log-scores
    raw_dist: np.ndarray    # before the prediction shift, kept for tracing


def decode(scorer: Scorer, program: Optional[R.RuleProgram], rule: Optional[str],
           ctx: Optional[EvalContext], config: DecodingConfig,
           prompt: Optional[Sequence[int]] = None,
           trace: bool = False) -> DecodeResult:
    """Run the full constrained decoding loop.

    ``program``/``rule`` may be None for unconstrained operation.  ``ctx``
    carries the fact base and set bindings; the decoder owns the ``Prev``
    binding, refreshing it per hypothesis.
    """
    facts = ctx.facts if ctx is not None else None
    if facts is not None and scorer.vocab_size != len(facts.vocab):
        raise ValueError(
            f"scorer vocabulary ({scorer.vocab_size}) does not match fact base "
            f"({len(facts.vocab)})")
    concepts = tuple(ctx.sets.get("C", ())) if ctx is not None else ()
    shifting = program is not None and rule is not None and ctx is not None \
        and config.alpha3 > 0
    hooking = program is not None and rule is not None and ctx is not None \
        and scorer.supports_attention_hooks and (config.alpha1 > 0 or config.alpha2 > 0)

    memo_mode = _prefix_dependence(program, rule) if shifting or hooking else "full"
    vocab_memo: dict = {}

    def vocab_truth(tokens: tuple[int, ...], covered: int) -> np.ndarray:
        if memo_mode == "none":
            key = ()
        elif memo_mode == "coverage":
            key = covered
        else:
            key = tokens
        hit = vocab_memo.get(key)
        if hit is None:
            local = EvalContext(facts=facts, sets={**ctx.sets, "Prev": tokens})
            hit = prove(program, rule, Domain.vocabulary(facts), local)
            vocab_memo[key] = hit
        return hit

    def step_dist(session, token: int, tokens_after: tuple[int, ...], covered: int):
        """Consume ``token``; return (shifted log-scores, dist before the
        prediction shift)."""
        truth = vocab_truth(tokens_after, covered) if hooking or shifting else None
        hooks = AttentionHookBundle(
            alpha1=config.alpha1,
            alpha2=config.alpha2,
            truth_prefix=truth[list(tokens_after)],
            truth_targets=truth[list(concepts)] if concepts else None,
        ) if hooking else None
        raw = scorer.step(session, token, hooks=hooks)
        return pre_activation(raw, truth if shifting else None, config.alpha3), raw

    prompt_tokens = tuple(prompt) if prompt is not None else (config.bos_id,)
    if not prompt_tokens:
        raise ValueError("prompt must contain at least one token")

    table = coverage_table(concepts, facts)
    # without a fact base there are no concepts, so every lookup misses
    class_of = facts.stems.class_of if facts is not None else range(scorer.vocab_size)
    root_session = scorer.begin_session(concepts)
    mask = 0
    for i, tok in enumerate(prompt_tokens):
        mask |= table.get(class_of[tok], 0)
        scores, raw = step_dist(root_session, tok, prompt_tokens[: i + 1], mask)
    live = [_Live(Hypothesis(prompt_tokens, 0.0, mask), root_session, scores, raw)]
    finished: list[Hypothesis] = []
    trace_log: list = []
    log_rho = math.log(config.prune_ratio)
    steps_run = 0

    for step_index in range(config.max_length):
        if not live:
            break
        steps_run += 1
        if trace:
            trace_log.append(_trace_entry(step_index, live[0], shifting))

        # (3)-(4) expand top candidates per hypothesis under shifted scores
        candidates = []  # (score, hyp_index, token)
        for hi, item in enumerate(live):
            logd = item.scores
            k = min(config.beam_size, len(logd))
            top = np.argpartition(-logd, k - 1)[:k]
            for w in top:
                score = item.hyp.logp + float(logd[w])
                if not np.isfinite(score) or logd[w] <= SCORE_FLOOR / 2:
                    continue
                candidates.append((score, hi, int(w)))
        if not candidates:
            break

        # (6) relative pruning against the best candidate of this step
        best_score = max(c[0] for c in candidates)
        threshold = best_score + log_rho
        survivors = [c for c in candidates if c[0] >= threshold - 1e-12]

        # (5) coverage update per survivor
        enriched = [(score, hi, w, live[hi].hyp.covered | table.get(class_of[w], 0))
                    for score, hi, w in survivors]

        # (7) group by bitmask, keep top k per group, fill beam by score
        selected = _select_beam(enriched, config)

        next_live = []
        for score, hi, w, mask in selected:
            parent = live[hi]
            tokens = parent.hyp.tokens + (w,)
            hyp = Hypothesis(tokens, score, mask,
                             finished=(config.eos_id is not None and w == config.eos_id))
            if hyp.finished:
                finished.append(hyp)
                continue
            session = parent.session.clone()
            scores, raw = step_dist(session, w, tokens, mask)
            next_live.append(_Live(hyp, session, scores, raw))
        live = next_live

    completed = bool(finished)
    pool = finished if finished else [item.hyp for item in live]
    prompt_len = len(prompt_tokens)
    ranked = sorted(
        pool,
        key=lambda h: (
            -_length_normalized(h, prompt_len, config.length_norm_power),
            -bin(h.covered).count("1"),
            h.tokens,
        ),
    )
    return DecodeResult(ranked, completed, steps_run, trace_log)


def _length_normalized(hyp: Hypothesis, prompt_len: int, power: float) -> float:
    gen_len = max(len(hyp.tokens) - prompt_len, 1)
    return hyp.logp / gen_len ** power


def _select_beam(candidates: list[tuple[float, int, int, int]],
                 config: DecodingConfig) -> list[tuple[float, int, int, int]]:
    """Grouped beam selection over pruned candidates.

    Candidates are (score, hyp_index, token, covered_mask), grouped by mask;
    a group's head is its best candidate.  Groups rank by covered-concept
    count, then by head; past ``max_groups`` the top-ranked group and the
    ``max_groups - 1`` best-headed others are kept.  The beam takes, up to
    ``beam_size``: each kept group's head in rank order, then every group's
    2nd to ``group_budget``-th members by score, then the remaining members
    by score; it is returned sorted by score.  Deterministic: ties break
    toward smaller token ids, then earlier hypotheses.
    """
    def order(c):
        return (-c[0], c[2], c[1])

    ranked = sorted(candidates, key=order)
    heads: dict[int, tuple] = {}  # in head order, which the stable sort keeps on ties
    for c in ranked:
        heads.setdefault(c[3], c)
    group_order = sorted(heads, key=lambda m: -bin(m).count("1"))
    if len(group_order) > config.max_groups:
        # keep the most-covered group plus the best-headed others
        rest = [m for m in heads if m != group_order[0]][: config.max_groups - 1]
        keep = {group_order[0], *rest}
        group_order = [m for m in group_order if m in keep]

    counts = dict.fromkeys(group_order, 0)  # members met so far per kept group
    within, spare = [], []
    for c in ranked:
        n = counts.get(c[3])
        if n is None:
            continue
        counts[c[3]] = n + 1
        if n:
            (within if n < config.group_budget else spare).append(c)
    beam = ([heads[m] for m in group_order] + within + spare)[: config.beam_size]
    beam.sort(key=order)
    return beam


def _trace_entry(step_index: int, item: _Live, shifting: bool) -> dict:
    before = [[int(i), float(item.raw_dist[i])] for i in np.argsort(-item.raw_dist)[:5]]
    # exponentiate only the five shifted scores reported
    after = [[int(i), float(np.exp(item.scores[i]))] for i in np.argsort(-item.scores)[:5]] \
        if shifting else before
    return {"step": step_index, "top_after": after, "top_before": before}


# ---------------------------------------------------------------------------
# Plain beam search baseline (no constraints, no pruning, no grouping)

def plain_beam_search(scorer: Scorer, beam_size: int, max_length: int,
                      bos_id: int = 0, eos_id: Optional[int] = None,
                      prompt: Optional[Sequence[int]] = None,
                      length_norm_power: float = 0.7) -> DecodeResult:
    """Reference beam search over raw scorer distributions."""
    prompt_tokens = tuple(prompt) if prompt is not None else (bos_id,)
    session = scorer.begin_session()
    dist = None
    for tok in prompt_tokens:
        dist = scorer.step(session, tok)
    live = [(Hypothesis(prompt_tokens, 0.0), session, dist)]
    finished: list[Hypothesis] = []
    for _ in range(max_length):
        if not live:
            break
        candidates = []
        for hi, (hyp, _sess, d) in enumerate(live):
            logd = pre_activation(d)
            k = min(beam_size, len(logd))
            top = np.argpartition(-logd, k - 1)[:k]
            for w in top:
                score = hyp.logp + float(logd[w])
                if np.isfinite(score) and logd[w] > SCORE_FLOOR / 2:
                    candidates.append((score, hi, int(w)))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[2], c[1]))
        next_live = []
        for score, hi, w in candidates[:beam_size]:
            hyp, sess, _d = live[hi]
            tokens = hyp.tokens + (w,)
            if eos_id is not None and w == eos_id:
                finished.append(Hypothesis(tokens, score, finished=True))
                continue
            new_sess = sess.clone()
            new_dist = scorer.step(new_sess, w)
            next_live.append((Hypothesis(tokens, score), new_sess, new_dist))
        live = next_live
    completed = bool(finished)
    pool = finished if finished else [h for h, _s, _d in live]
    ranked = sorted(
        pool,
        key=lambda h: (-_length_normalized(h, len(prompt_tokens), length_norm_power),
                       h.tokens),
    )
    return DecodeResult(ranked, completed)
