"""Constrained beam search: per-hypothesis rule evaluation, distribution
shifting, coverage tracking, grouping, and pruning.

Each step, every live hypothesis expands its top ``beam_size`` candidates
from its shifted next-token log-scores ``pre_activation(p, I, alpha3)``; at
the ``beam_size``-th place, ties go to the smaller token id.  The truth ``I``
is a ``Truth`` (a background plus sparse entries); where its background is
0, the boost is zero off its ids, so those top candidates lie on the ids or
among the tokens whose ``p`` reaches the ``beam_size``-th largest: one
``decision.top_k_rows`` call per step ranks the live beam, scoring only
those when the vocabulary is large, bit for bit as ``pre_activation``
would.  Candidates are
pruned relative to the best candidate of the step (keep those within a
``prune_ratio`` fraction of the best likelihood) and grouped by their
covered-concept bitmask; at most ``max_groups`` groups stay, the
most-covered one always among them.  The next beam takes, in this order and
up to ``beam_size``: the best candidate of each group, most-covered groups
first; then the next ``group_budget - 1`` of each group by global score;
then the rest by global score.  A step first scores the live beam with one
``Scorer.step_batch`` call: a hypothesis is scored only at the step that
expands it, so nothing is scored after the last selection.  The n-gram
scorer's batch holds ``lm.NgramDist``s, which ``top_k_rows`` ranks from
their unigram order and sparse corrections, so a step over a large
vocabulary builds no V-long distribution or truth vector; only ``trace``
writes them out, for the first hypothesis.

Each hypothesis step proves at most once: the vocabulary truth under its own
prefix, of which the attention hooks' prefix and target truths are gathers
(an atom reads only the token id at a position).  One pass over the program,
callees first, classes each rule by how its closure reads the prefix:
``"none"`` (never), ``"coverage"`` (only through stem-equality probes of the
constraint set, as ``R`` of the shipped lexical templates) or ``"full"``.
Unless the proved rule is ``"full"``, the truth is memoised on the coverage
bitmask.  Across proves, the prover's memo keeps the truths of the
``"none"`` rules, as ``Rel(x, c)`` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rules as R
# decide is not called here; the benchmark's tracer patches this name
from .decision import SCORE_FLOOR, decide, pre_activation, top_k_rows  # noqa: F401
from .kb import FactBase
from .lm import NgramDist, Scorer
from .prover import Domain, EvalContext, prove
from .transformer import AttentionHookBundle
from .truth import Truth

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
        if self.max_length < 0:
            raise ValueError("max length must be >= 0")
        if not math.isfinite(self.length_norm_power):
            # a NaN would make every ranking key NaN, and the order arbitrary
            raise ValueError("length-normalisation power must be finite")
        for name in ("alpha1", "alpha2", "alpha3"):
            # a NaN would pass a `< 0` test and silently switch its shift off
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


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

def _prefix_classes(program: R.RuleProgram) -> dict[str, str]:
    """How each rule's closure depends on the generated prefix, in one pass
    over ``program.order`` (callees first).

    ``"none"``: it never quantifies over ``Prev``.  ``"coverage"``: it reads
    the prefix only through probes ``Y(x) :- exists y in Prev, Equal(x, y)``
    applied to elements of the concept set, so the coverage bitmask
    determines its truth.  ``"full"``: anything else, a probe itself
    included (its argument is then the domain position, not a concept).
    """
    def is_probe(r: R.Rule) -> bool:
        q = r.body
        return (len(r.params) == 1 and isinstance(q, R.Quant) and q.kind == "exists"
                and q.set_name == "Prev" and isinstance(q.body, R.Atom)
                and q.body.pred == "Equal"
                and {a.name for a in q.body.args} == {r.params[0], q.var})

    rank = ("none", "coverage", "full").index
    classes: dict[str, str] = {}
    for name in program.order:
        cls = "none"
        for node, _, scope in R.walk(program.rule(name)):
            if isinstance(node, R.Quant) and node.set_name == "Prev":
                cls = "full"
            elif isinstance(node, R.RuleRef):
                on_concepts = is_probe(program.rule(node.rule)) and all(
                    scope[a.name] == "C" for a in node.args)
                cls = max(cls, "coverage" if on_concepts else classes[node.rule], key=rank)
        classes[name] = cls
    return classes


def _keep_prefix_free(memo: dict, classes: dict[str, str]) -> None:
    """Drop the entries of rules not classed ``"none"``; freeze the truths kept."""
    for key in list(memo):
        if classes[key[0]] != "none":
            del memo[key]
        elif isinstance(memo[key], Truth):
            memo[key].ids.flags.writeable = memo[key].values.flags.writeable = False


# ---------------------------------------------------------------------------
# Decoding

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

    classes = _prefix_classes(program) if shifting or hooking else {}
    memo_mode = classes[program.rule(rule).name] if shifting or hooking else "full"
    vocab_memo: dict = {}
    rule_memo: dict = {}  # the prover's, carried across proves for "none" rules
    vocabulary = Domain.vocabulary(facts) if shifting or hooking else None

    def vocab_truth(tokens: tuple[int, ...], covered: int) -> Truth:
        if covered in vocab_memo:
            return vocab_memo[covered]
        local = EvalContext(facts, {**ctx.sets, "Prev": tokens}, rule_memo)
        truth = prove(program, rule, vocabulary, local)
        _keep_prefix_free(rule_memo, classes)
        if memo_mode != "full":  # no two hypothesis steps share a prefix
            vocab_memo[covered] = truth
        return truth

    def step_dist(sessions: Sequence, hyps: Sequence[Hypothesis]) -> tuple[list, list]:
        """Consume each hypothesis's last token in its session with one
        ``step_batch`` call; return per session the dist before the
        prediction shift and the vocabulary truth (None when unshifted)."""
        truths = [vocab_truth(h.tokens, h.covered) if hooking or shifting else None
                  for h in hyps]
        hooks = None
        if hooking:  # each hypothesis's prefix and target truths, in one gather
            gathered = [truth.at(h.tokens + concepts) for h, truth in zip(hyps, truths)]
            hooks = [AttentionHookBundle(
                alpha1=config.alpha1,
                alpha2=config.alpha2,
                truth_prefix=values[:len(h.tokens)],
                truth_targets=values[len(h.tokens):] if concepts else None,
            ) for h, values in zip(hyps, gathered)]
        raws = scorer.step_batch(sessions, [h.tokens[-1] for h in hyps], hooks)
        return raws, truths if shifting else [None] * len(hyps)

    prompt_tokens = tuple(prompt) if prompt is not None else (config.bos_id,)
    if not prompt_tokens or not all(0 <= t < scorer.vocab_size for t in prompt_tokens):
        raise ValueError(f"prompt must be one or more token ids in [0, {scorer.vocab_size})")

    table = coverage_table(concepts, facts)
    # without a fact base there are no concepts, so every lookup misses
    class_of = facts.stems.class_of if facts is not None else range(scorer.vocab_size)
    session = scorer.begin_session(concepts)
    # the loop's first step consumes the last prompt token
    mask = table.get(class_of[prompt_tokens[0]], 0)
    for i in range(1, len(prompt_tokens)):
        step_dist([session], [Hypothesis(prompt_tokens[:i], 0.0, mask)])
        mask |= table.get(class_of[prompt_tokens[i]], 0)
    # (hypothesis, session that has consumed all of its tokens but the last)
    live = [(Hypothesis(prompt_tokens, 0.0, mask), session)]
    finished: list[Hypothesis] = []
    trace_log: list = []
    log_rho = math.log(config.prune_ratio)
    k = min(config.beam_size, scorer.vocab_size)
    steps_run = 0
    while live and steps_run < config.max_length:
        hyps, sessions = zip(*live)
        raws, truths = step_dist(sessions, hyps)
        if trace:
            truth = truths[0].dense() if shifting else None
            raw = raws[0].dense() if isinstance(raws[0], NgramDist) else raws[0]
            scores = pre_activation(raw, truth, config.alpha3)
            trace_log.append(_trace_entry(steps_run, scores, raw, shifting))
        steps_run += 1

        # (3)-(4) expand the top k candidates per hypothesis under shifted
        # scores, as one (hypotheses, k) block
        top, logd = top_k_rows(raws, truths, config.alpha3, k)
        score = np.array([hyp.logp for hyp in hyps])[:, None] + logd
        keep = np.isfinite(score) & (logd > SCORE_FLOOR / 2)
        if not keep.any():
            break

        # (6) relative pruning against the best candidate of this step
        keep &= score >= (score[keep].max() + log_rho) - 1e-12

        # (5) coverage update per survivor, in row-major order
        rows, cols = np.nonzero(keep)
        candidates = [(s, hi, w, hyps[hi].covered | table.get(class_of[w], 0))
                      for s, hi, w in zip(score[rows, cols].tolist(), rows.tolist(),
                                          top[rows, cols].tolist())]

        # (7) group by bitmask, keep top k per group, fill beam by score
        live = []
        for s, hi, w, mask in _select_beam(candidates, config):
            hyp = Hypothesis(hyps[hi].tokens + (w,), s, mask,
                             finished=(config.eos_id is not None and w == config.eos_id))
            if hyp.finished:
                finished.append(hyp)
            else:
                live.append((hyp, sessions[hi].clone()))

    completed = bool(finished)
    pool = finished if finished else [hyp for hyp, _ in live]
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


def _trace_entry(step_index: int, scores: np.ndarray, raw: np.ndarray, shifting: bool) -> dict:
    # ties go to the smaller id, as in the ranking the decoder expands
    before = [[int(i), float(raw[i])] for i in np.argsort(-raw, kind="stable")[:5]]
    # exponentiate only the five shifted scores reported
    after = [[int(i), float(np.exp(scores[i]))] for i in np.argsort(-scores, kind="stable")[:5]] \
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
    if not prompt_tokens or not all(0 <= t < scorer.vocab_size for t in prompt_tokens):
        raise ValueError(f"prompt must be one or more token ids in [0, {scorer.vocab_size})")
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
            top = np.argsort(-logd, kind="stable")[:k]  # ties to the smaller id
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
