"""Constrained beam search: per-hypothesis rule evaluation, distribution
shifting, coverage tracking, grouping, and pruning.

Each step, every live hypothesis expands its top candidates from its shifted
next-token distribution.  Candidates are pruned relative to the best
candidate of the step (keep those within a ``prune_ratio`` fraction of the
best likelihood), grouped by their covered-concept bitmask, capped at
``group_budget`` per group, and the beam is then filled back to size by
global score.  Whenever a candidate from a group survives pruning, the next
beam keeps at least the best candidate of that group, most-covered groups
first.

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
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import rules as R
from .decision import SCORE_FLOOR, decide, pre_activation
from .kb import FactBase
from .lm import Scorer
from .prover import Domain, EvalContext, prove
from .transformer import AttentionHookBundle

__all__ = [
    "Hypothesis", "DecodingConfig", "DecodeResult", "PRESETS",
    "decode", "plain_beam_search", "update_constraint_state", "coverage_of",
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

def update_constraint_state(hyp: Hypothesis, token: int,
                            concepts: Sequence[int], facts: FactBase) -> Hypothesis:
    """Set the bit of every concept whose stem class the token matches;
    existing bits persist."""
    covered = hyp.covered
    for i, cid in enumerate(concepts):
        if not (covered >> i & 1) and facts.same_stem(token, cid):
            covered |= 1 << i
    if covered == hyp.covered:
        return hyp
    return replace(hyp, covered=covered)


def _covered_mask(tokens: Sequence[int], concepts: Sequence[int],
                  facts: FactBase) -> int:
    mask = 0
    for i, cid in enumerate(concepts):
        for tok in tokens:
            if facts.same_stem(tok, cid):
                mask |= 1 << i
                break
    return mask


def coverage_of(hyp: Hypothesis, concepts: Sequence[int]) -> float:
    if not concepts:
        return 1.0
    return bin(hyp.covered & ((1 << len(concepts)) - 1)).count("1") / len(concepts)


# ---------------------------------------------------------------------------
# Prefix-dependence analysis for truth-vector memoisation

def _prefix_dependence(program: R.RuleProgram, rule: str,
                       concept_set: str = "C", prefix_set: str = "Prev") -> str:
    """Classify how the rule closure depends on the generated prefix.

    Returns ``"none"`` (prefix never referenced), ``"coverage"`` (prefix
    enters only through stem-equality tests against elements of the concept
    set, so the coverage bitmask determines the truth vector), or ``"full"``
    (re-prove every step).
    """
    reachable: set[str] = set()
    stack = [rule]
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for node in R._walk(program.rule(name).body):
            if isinstance(node, R.RuleRef):
                stack.append(node.rule)

    def is_coverage_probe(r: R.Rule) -> bool:
        body = r.body
        return (
            len(r.params) == 1
            and isinstance(body, R.Quant)
            and body.kind == "exists"
            and body.set_name == prefix_set
            and isinstance(body.body, R.Atom)
            and body.body.pred == "Equal"
            and {a.name for a in body.body.args if isinstance(a, R.Var)}
            == {r.params[0], body.var}
        )

    probes = set()
    uses_prefix = False
    for name in reachable:
        r = program.rule(name)
        for node in R._walk(r.body):
            if isinstance(node, R.Quant) and node.set_name == prefix_set:
                uses_prefix = True
                if is_coverage_probe(r):
                    probes.add(name)
                else:
                    return "full"
    if not uses_prefix:
        return "none"

    def probe_args_are_concepts(expr, quant_sets: dict[str, str]) -> bool:
        if isinstance(expr, R.Quant):
            return probe_args_are_concepts(
                expr.body, {**quant_sets, expr.var: expr.set_name})
        if isinstance(expr, R.Not):
            return probe_args_are_concepts(expr.child, quant_sets)
        if isinstance(expr, (R.OrNode, R.AndAvgNode, R.AndLukNode)):
            return all(probe_args_are_concepts(c, quant_sets) for c in expr.children)
        if isinstance(expr, R.RuleRef) and expr.rule in probes:
            for arg in expr.args:
                if isinstance(arg, R.SetElement):
                    if arg.set_name != concept_set:
                        return False
                elif quant_sets.get(arg.name) != concept_set:
                    return False
        return True

    # the probe value is determined by the coverage bitmask only when every
    # reference binds an element of the concept set
    for name in reachable:
        if name in probes:
            continue
        if not probe_args_are_concepts(program.rule(name).body, {}):
            return "full"
    return "coverage"


# ---------------------------------------------------------------------------
# Decoding

@dataclass
class _Live:
    hyp: Hypothesis
    session: object
    next_dist: np.ndarray
    raw_dist: Optional[np.ndarray] = None   # unshifted, kept for tracing


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

    memo_mode = "full"
    if program is not None and rule is not None and (shifting or hooking):
        memo_mode = _prefix_dependence(program, rule)
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
        """Consume ``token``; return (shifted dist, raw dist or None)."""
        if hooking:
            truth = vocab_truth(tokens_after, covered)
            bundle = AttentionHookBundle(
                alpha1=config.alpha1,
                alpha2=config.alpha2,
                alpha3=config.alpha3,
                truth_prefix=truth[list(tokens_after)],
                truth_targets=truth[list(concepts)] if concepts else None,
                truth_vocab=truth if config.alpha3 > 0 else None,
            )
            return scorer.step(session, token, hooks=bundle), None
        raw = scorer.step(session, token)
        if shifting:
            shifted = decide(raw, vocab_truth(tokens_after, covered), config.alpha3)
            return shifted, raw
        return raw, raw

    prompt_tokens = tuple(prompt) if prompt is not None else (config.bos_id,)
    if not prompt_tokens:
        raise ValueError("prompt must contain at least one token")

    root_session = scorer.begin_session(concepts)
    root_mask = _covered_mask(prompt_tokens, concepts, facts) if concepts else 0
    dist = None
    for i, tok in enumerate(prompt_tokens):
        consumed = prompt_tokens[: i + 1]
        mask_now = _covered_mask(consumed, concepts, facts) if concepts else 0
        dist, raw = step_dist(root_session, tok, consumed, mask_now)
    live = [_Live(Hypothesis(prompt_tokens, 0.0, root_mask), root_session, dist,
                  raw if not hooking else None)]
    finished: list[Hypothesis] = []
    trace_log: list = []
    log_rho = math.log(config.prune_ratio)
    steps_run = 0

    for step_index in range(config.max_length):
        if not live:
            break
        steps_run += 1
        if trace:
            entry = _trace_entry(step_index, live[0])
            trace_log.append(entry)

        # (3)-(4) expand top candidates per hypothesis under shifted scores
        candidates = []  # (score, hyp_index, token)
        for hi, item in enumerate(live):
            logd = pre_activation(item.next_dist)
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
        enriched = []
        for score, hi, w in survivors:
            parent = live[hi].hyp
            mask = parent.covered
            for i, cid in enumerate(concepts):
                if not (mask >> i & 1) and facts.same_stem(w, cid):
                    mask |= 1 << i
            enriched.append((score, hi, w, mask))

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
            dist, raw = step_dist(session, w, tokens, mask)
            next_live.append(_Live(hyp, session, dist, raw if not hooking else None))
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

    Candidates are (score, hyp_index, token, covered_mask).  Deterministic:
    ties break toward smaller token ids, then earlier hypotheses.
    """
    def order(c):
        return (-c[0], c[2], c[1])

    groups: dict[int, list] = {}
    for c in candidates:
        groups.setdefault(c[3], []).append(c)
    for members in groups.values():
        members.sort(key=order)

    group_order = sorted(
        groups,
        key=lambda m: (-bin(m).count("1"), order(groups[m][0])),
    )
    if len(group_order) > config.max_groups:
        # keep the most-covered group plus the best-scoring remainder
        keep = set(group_order[:1])
        rest = sorted(group_order[1:], key=lambda m: order(groups[m][0]))
        keep.update(rest[: config.max_groups - 1])
        group_order = [m for m in group_order if m in keep]
        groups = {m: groups[m] for m in group_order}

    kept: dict[int, list] = {m: groups[m][: config.group_budget] for m in group_order}

    beam: list = []
    chosen = set()
    for m in group_order:
        if len(beam) >= config.beam_size:
            break
        head = kept[m][0]
        beam.append(head)
        chosen.add(id(head))

    leftovers = [c for m in group_order for c in kept[m] if id(c) not in chosen]
    leftovers.sort(key=order)
    for c in leftovers:
        if len(beam) >= config.beam_size:
            break
        beam.append(c)
        chosen.add(id(c))

    if len(beam) < config.beam_size:
        # grouping budgets left slack: top up from remaining survivors
        spare = [c for m in group_order for c in groups[m][config.group_budget:]]
        spare.sort(key=order)
        for c in spare:
            if len(beam) >= config.beam_size:
                break
            beam.append(c)

    beam.sort(key=order)
    return beam


def _trace_entry(step_index: int, item: _Live) -> dict:
    def top5(dist):
        idx = np.argsort(-dist)[:5]
        return [[int(i), float(dist[i])] for i in idx]

    entry = {"step": step_index, "top_after": top5(item.next_dist)}
    entry["top_before"] = top5(item.raw_dist) if item.raw_dist is not None \
        else entry["top_after"]
    return entry


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
