"""Constrained beam search: per-hypothesis rule evaluation, distribution
shifting, coverage tracking, grouping, and pruning.

The live beam is arrays: a token matrix (a row per hypothesis), the rows'
log-probabilities and their uint64 covered-concept bitmasks, so at most 64
concepts, beside one scorer session per row; ``Hypothesis`` objects are made
only for finished hypotheses and the results.  A step scores the beam with
one ``Scorer.step_batch`` call (a hypothesis is scored only at the step that
expands it) and ranks each row's top ``beam_size`` shifted log-scores
``pre_activation(p, I, alpha3)``, ties to the smaller token id, with one
``decision.top_k_rows`` call.  Where the truth ``I`` (a ``Truth``: a
background plus sparse entries) has background 0, the boost is zero off its
ids, so over a large vocabulary only those ids and the tokens whose ``p``
reaches the ``beam_size``-th largest are scored, bit for bit as
``pre_activation`` would; ``lm.NgramDist``s are ranked from their unigram
order and sparse corrections, so no V-long distribution or truth vector is
built.  ``trace`` ranks the first hypothesis's top five, before and after
the shift, with ``top_k_rows`` too, and reads their ``p`` off its row.
Candidates within a ``prune_ratio`` fraction of the step's best likelihood
survive, a survivor's mask being its parent's OR its token's stem-class bits.
``_select_beam`` groups them by mask and takes up to ``beam_size``: each
group's best, most-covered groups first; then the next ``group_budget - 1``
of each group; then the rest, both by score.

Every hypothesis starts from ``bos_id``, and each hypothesis step proves at
most once: the vocabulary truth under its own prefix, of which the
attention hooks' prefix and target truths are gathers (an atom reads only
the token id at a position).  One pass over the program, callees first,
flags the rules whose truth the coverage bitmask fixes: they read the
prefix only through stem-equality probes of the constraint set, as ``R`` of
the shipped lexical templates, or not at all.  The truth of a flagged
proved rule is memoised on the coverage bitmask.  Every prove of a decode
shares one prover memo, which keys each entry by the bindings of the sets
its rule reads, so ``Rel(x, c)`` there is proved once per concept.  No two
hypothesis steps share a prefix, so after each step's proves the memo
keeps only the entries of rules that do not read ``Prev``.
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
from .lm import Scorer, _check_token
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
    covered: int = 0           # bitmask over the constraint set, bit i for C[i] (i < 64)
    finished: bool = False


@dataclass(frozen=True)
class DecodingConfig:
    beam_size: int = 20
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    prune_ratio: float = 1e-9          # rho, in (0, 1]
    group_budget: int = 16             # k, per-group retention
    max_length: int = 32               # generated tokens, BOS excluded
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
        if self.max_length < 0:
            raise ValueError("max length must be >= 0")
        if not math.isfinite(self.length_norm_power):
            # a NaN would make every ranking key NaN, and the order arbitrary
            raise ValueError("length-normalisation power must be finite")
        for name in ("alpha1", "alpha2", "alpha3"):
            # a NaN would pass a `< 0` test and silently switch its shift off
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


# The paper's two hyperparameter sets, (alpha1, alpha2, alpha3, rho, k, beam):
# ``logicdec decode`` runs a lexical instance under "commongen" and a
# dialogue instance under "personachat".
PRESETS: dict[str, DecodingConfig] = {
    "commongen": DecodingConfig(beam_size=20, alpha1=12.0, alpha2=24.0, alpha3=24.0,
                                prune_ratio=0.6, group_budget=16, length_norm_power=1.0),
    "personachat": DecodingConfig(beam_size=10, alpha1=12.0, alpha2=24.0, alpha3=48.0,
                                  prune_ratio=0.4, group_budget=8, length_norm_power=1.0),
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

def coverage_table(concepts: Sequence[int], facts: Optional[FactBase]) -> np.ndarray:
    """Stem class -> bits of the concepts in it, as uint64: consuming ``tok``
    updates a coverage mask as ``mask | table[class_of[tok]]``.  Without a
    fact base there are no concepts and one class."""
    _check_token(concepts, len(facts.vocab) if facts is not None else 0, "set 'C' binds token id")
    if len(concepts) > 64:
        raise ValueError(f"uint64 coverage masks hold at most 64 concepts, got {len(concepts)}")
    table = np.zeros(facts.stems.n_classes if facts is not None else 1, dtype=np.uint64)
    for i, cid in enumerate(concepts):
        table[facts.stems.class_of[cid]] |= np.uint64(1 << i)
    return table


def coverage_of(hyp: Hypothesis, concepts: Sequence[int]) -> float:
    if not concepts:
        return 1.0
    return bin(hyp.covered & ((1 << len(concepts)) - 1)).count("1") / len(concepts)


# ---------------------------------------------------------------------------
# Prefix-dependence analysis for truth-vector memoisation

def _fixed_by_coverage(program: R.RuleProgram) -> dict[str, bool]:
    """Whether the coverage bitmask fixes each rule's truth, in one pass over
    ``program.order`` (callees first): its closure reads the prefix only
    through probes ``Y(x) :- exists y in Prev, Equal(x, y)`` applied to
    elements of the concept set, or not at all.  A probe itself is not (its
    argument is then the domain position, not a concept).
    """
    def is_probe(r: R.Rule) -> bool:
        q = r.body
        return (len(r.params) == 1 and isinstance(q, R.Quant) and q.kind == "exists"
                and q.set_name == "Prev" and isinstance(q.body, R.Atom)
                and q.body.pred == "Equal"
                and {a.name for a in q.body.args} == {r.params[0], q.var})

    fixed: dict[str, bool] = {}
    for name in program.order:
        fixed[name] = True
        for node, _, scope in R.walk(program.rule(name)):
            if isinstance(node, R.Quant) and node.set_name == "Prev" or \
                    isinstance(node, R.RuleRef) and not fixed[node.rule] and not (
                        is_probe(program.rule(node.rule))
                        and all(scope[a.name] == "C" for a in node.args)):
                fixed[name] = False
    return fixed


# ---------------------------------------------------------------------------
# Decoding

def decode(scorer: Scorer, program: Optional[R.RuleProgram], rule: Optional[str],
           ctx: Optional[EvalContext], config: DecodingConfig, *,
           trace: bool = False) -> DecodeResult:
    """Run the full constrained decoding loop.

    Every hypothesis starts from ``config.bos_id``.  ``program``/``rule``
    may be None for unconstrained operation.  ``ctx`` carries the fact base
    and set bindings; the decoder owns the ``Prev`` binding, refreshing it
    per hypothesis.
    """
    facts = ctx.facts if ctx is not None else None
    if facts is not None and scorer.vocab_size != len(facts.vocab):
        raise ValueError(
            f"scorer vocabulary ({scorer.vocab_size}) does not match fact base "
            f"({len(facts.vocab)})")
    concepts = tuple(ctx.sets.get("C", ())) if ctx is not None else ()
    bits = coverage_table(concepts, facts)
    _check_token((config.bos_id,), scorer.vocab_size, "BOS id")
    _check_token(() if config.eos_id is None else (config.eos_id,), scorer.vocab_size, "EOS id")
    shifting = program is not None and rule is not None and ctx is not None \
        and config.alpha3 > 0
    hooking = program is not None and rule is not None and ctx is not None \
        and scorer.supports_attention_hooks and (config.alpha1 > 0 or config.alpha2 > 0)

    by_mask = (shifting or hooking) and _fixed_by_coverage(program)[program.rule(rule).name]
    vocab_memo: dict = {}
    rule_memo: dict = {}  # the prover's, valid for every prove of this decode
    vocabulary = Domain.vocabulary(facts) if shifting or hooking else None

    def vocab_truth(prefix: list[int], covered: int) -> Truth:
        if covered in vocab_memo:
            return vocab_memo[covered]
        truth = prove(program, rule, vocabulary,
                      EvalContext(facts, {**ctx.sets, "Prev": tuple(prefix)}, rule_memo))
        if by_mask:  # no two hypothesis steps share a prefix
            vocab_memo[covered] = truth
        return truth

    def step(sessions: list, prefixes: list[list[int]], hooked: Optional[list]) -> list:
        """Consume each prefix's last token in its session with one
        ``step_batch`` call, hooked by each prefix's truths at ``prefix + C``
        when hooking; return per session the dist before the prediction shift."""
        hooks = None
        if hooking:
            hooks = [AttentionHookBundle(
                alpha1=config.alpha1,
                alpha2=config.alpha2,
                truth_prefix=values[:len(prefix)],
                truth_targets=values[len(prefix):] if concepts else None,
            ) for prefix, values in zip(prefixes, hooked)]
        return scorer.step_batch(sessions, [prefix[-1] for prefix in prefixes], hooks)

    class_of = facts.stems.class_of if facts is not None else np.zeros(scorer.vocab_size, int)
    # the live beam, a row per hypothesis; sessions[i] has consumed tokens[i] but the last
    tokens, logp = np.array([[config.bos_id]], dtype=np.int64), np.zeros(1)
    covered = bits[class_of[[config.bos_id]]]
    sessions = [scorer.begin_session(concepts)]
    finished: list[Hypothesis] = []
    trace_log: list = []
    log_rho = math.log(config.prune_ratio)
    k = min(config.beam_size, scorer.vocab_size)
    eos = -1 if config.eos_id is None else config.eos_id
    steps_run = 0
    while sessions and steps_run < config.max_length:
        prefixes = tokens.tolist()
        # one prove per hypothesis step, read by the hooks and the shift
        truths = [vocab_truth(prefix, m) for prefix, m in zip(prefixes, covered.tolist())] \
            if hooking or shifting else None
        if truths:  # no later step shares a prefix, so none reads an entry keyed on one
            for key in [key for key in rule_memo if "Prev" in program.reads[key[0]]]:
                del rule_memo[key]
        raws = step(sessions, prefixes, [truth.at(prefix + list(concepts)) for prefix, truth
                                         in zip(prefixes, truths)] if hooking else None)
        if not shifting:  # only the hooks read them
            truths = [None] * len(prefixes)
        if trace:  # the first hypothesis's top five, ranked as the beam's rows are
            n = min(5, scorer.vocab_size)
            ids = top_k_rows(raws[:1], [None], 0.0, n)[0][0].tolist()
            before = [[i, float(p)] for i, p in zip(ids, np.asarray(raws[0])[ids])]
            after = before
            if shifting:
                ids, scores = top_k_rows(raws[:1], truths[:1], config.alpha3, n)
                after = [[i, float(np.exp(s))] for i, s in zip(ids[0].tolist(), scores[0])]
            trace_log.append({"step": steps_run, "top_after": after, "top_before": before})
        steps_run += 1

        # (3)-(4) expand the top k candidates per hypothesis under shifted
        # scores, as one (hypotheses, k) block
        top, logd = top_k_rows(raws, truths, config.alpha3, k)
        score = logp[:, None] + logd
        keep = np.isfinite(score) & (logd > SCORE_FLOOR / 2)
        if not keep.any():
            break

        # (6) relative pruning against the best candidate of this step
        keep &= score >= (score[keep].max() + log_rho) - 1e-12

        # (5) coverage update per survivor, in row-major order
        flat = keep.ravel().nonzero()[0]
        rows, score, token = flat // k, score.take(flat), top.take(flat)
        mask = covered[rows] | bits[class_of[token]]

        # (7) group by bitmask, keep top k per group, fill beam by score
        chosen = _select_beam(score, token, rows, mask, config)
        ends = token[chosen] == eos
        if ends.any():
            finished += [Hypothesis((*tokens[rows[i]].tolist(), int(token[i])), float(score[i]),
                                    int(mask[i]), finished=True) for i in chosen[ends].tolist()]
            chosen = chosen[~ends]
        rows, logp, covered = rows[chosen], score[chosen], mask[chosen]
        tokens = np.concatenate((tokens[rows], token[chosen][:, None]), axis=1)
        sessions = [sessions[i].clone() for i in rows.tolist()]

    pool = finished or [Hypothesis(tuple(t), s, m) for t, s, m in
                        zip(tokens.tolist(), logp.tolist(), covered.tolist())]
    ranked = sorted(pool, key=lambda h: (
        -_length_normalized(h, config.length_norm_power), -h.covered.bit_count(), h.tokens))
    return DecodeResult(ranked, bool(finished), steps_run, trace_log)


def _length_normalized(hyp: Hypothesis, power: float) -> float:
    gen_len = max(len(hyp.tokens) - 1, 1)  # BOS excluded
    return hyp.logp / gen_len ** power


def _select_beam(score: np.ndarray, token: np.ndarray, parent: np.ndarray,
                 mask: np.ndarray, config: DecodingConfig) -> np.ndarray:
    """Grouped beam selection: the indices of the chosen candidates, best first.

    Candidate ``i`` extends hypothesis ``parent[i]`` by ``token[i]``, scoring
    ``score[i]`` and covering ``mask[i]`` (uint64).  Candidates rank by score,
    then smaller token, then earlier hypothesis; a group (one mask) is headed
    by its best.  Groups rank by covered-concept count, then by head.  The
    beam takes, up to ``beam_size``: the heads in group rank, then each
    group's 2nd to ``group_budget``-th members, then the rest, by rank.
    """
    order = np.lexsort((parent, token, -score))
    n = len(order)
    ranked_mask = mask[order]
    by_mask = ranked_mask.argsort(kind="stable")  # each group in a row, by rank
    grouped = ranked_mask[by_mask]
    within = np.arange(n) - grouped.searchsorted(grouped)  # place in its group
    heads = (within == 0).nonzero()[0]
    head_rank = by_mask[heads].tolist()
    counts = [m.bit_count() for m in grouped[heads].tolist()]
    groups = sorted(range(len(heads)), key=lambda g: (-counts[g], head_rank[g]))
    # a head's key is its group rank (set below); then come each group's
    # budget and the spare members, both by rank
    key = by_mask + np.where(within < config.group_budget, n, 2 * n)
    key[heads[groups]] = np.arange(len(groups))
    take = by_mask[key.argsort()[:config.beam_size]]
    take.sort()
    return order[take]


# ---------------------------------------------------------------------------
# Plain beam search baseline (no constraints, no pruning, no grouping)

def plain_beam_search(scorer: Scorer, beam_size: int, max_length: int, *,
                      bos_id: int = 0, eos_id: Optional[int] = None,
                      length_norm_power: float = 0.7) -> DecodeResult:
    """Reference beam search over raw scorer distributions, from ``bos_id``.
    Its settings are checked as ``DecodingConfig`` checks them, and a
    hypothesis is scored only at the step that expands it."""
    DecodingConfig(beam_size=beam_size, max_length=max_length, bos_id=bos_id, eos_id=eos_id,
                   length_norm_power=length_norm_power)
    _check_token((bos_id,), scorer.vocab_size, "BOS id")
    _check_token(() if eos_id is None else (eos_id,), scorer.vocab_size, "EOS id")
    # each session has consumed its hypothesis's tokens but the last
    live = [(Hypothesis((bos_id,), 0.0), scorer.begin_session())]
    finished: list[Hypothesis] = []
    for _ in range(max_length):
        if not live:
            break
        candidates = []
        for hi, (hyp, sess) in enumerate(live):
            logd = pre_activation(scorer.step(sess, hyp.tokens[-1]))
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
            hyp, sess = live[hi]
            tokens = hyp.tokens + (w,)
            if eos_id is not None and w == eos_id:
                finished.append(Hypothesis(tokens, score, finished=True))
                continue
            next_live.append((Hypothesis(tokens, score), sess.clone()))
        live = next_live
    completed = bool(finished)
    pool = finished if finished else [h for h, _s in live]
    ranked = sorted(
        pool,
        key=lambda h: (-_length_normalized(h, length_norm_power), h.tokens),
    )
    return DecodeResult(ranked, completed)
