"""The benchmark's ``--trace 1`` runs time layers by patching the ``prove``,
``decide`` and ``pre_activation`` names that ``decoder`` and ``service``
call (``perfbench/spans.py``).  This runs one traced toy decode and one
traced ``decide`` request, so that dropping a patched name fails here and
not only in a traced benchmark run, and checks that a traced n-gram decode
ranks the rows an untraced one does."""

import sys
from dataclasses import replace
from pathlib import Path

from logicdec import decoder, service
from logicdec.lm import NgramDist
from logicdec.rules import parse_program
from logicdec.tasks import lexical_rule_template, load_instances

from conftest import DATA, p_shifted_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import TracedScorer, Tracer, patched  # noqa: E402

PATCHED = [(decoder, "prove"), (decoder, "decide"), (decoder, "pre_activation"),
           (service, "prove"), (service, "decide")]


def test_traced_decode_and_decide_record_spans_and_restore_names(lexical_scorer, toy_facts,
                                                                 sentinel_ids):
    originals = [getattr(module, name) for module, name in PATCHED]
    bos, eos = sentinel_ids
    config = replace(decoder.PRESETS["commongen"], max_length=6, bos_id=bos, eos_id=eos)
    instance = load_instances(DATA / "lexical20.jsonl")[0]
    binding = lexical_rule_template(instance.concepts, toy_facts)
    program = parse_program(binding.source)
    n = len(toy_facts.vocab)
    tracer = Tracer()
    with patched(tracer):
        result = decoder.decode(TracedScorer(lexical_scorer, tracer), program, binding.rule,
                                binding.ctx, config)
        reply = service.handle_request({"op": "decide", "p": [1.0 / n] * n,
                                        "truth": [0.5] * n, "alpha": 1.0}, toy_facts, program)
    assert result.hypotheses and len(p_shifted_of(reply)) == n
    summary = tracer.summary()
    assert summary["prover.prove_vocab"]["calls"] > 0
    assert summary["decision.decide"]["calls"] == 1
    assert summary["lm.step"]["calls"] > 0
    assert [getattr(module, name) for module, name in PATCHED] == originals


def test_traced_ngram_decode_ranks_the_untraced_rows(lexical_scorer, toy_facts, sentinel_ids,
                                                    monkeypatch):
    """The traced scorer's steps hand ``top_k_rows`` the ``NgramDist`` rows an
    untraced decode ranks, so the traced run times the untraced path."""
    bos, eos = sentinel_ids
    config = replace(decoder.PRESETS["commongen"], max_length=6, bos_id=bos, eos_id=eos)
    instance = load_instances(DATA / "lexical20.jsonl")[0]
    binding = lexical_rule_template(instance.concepts, toy_facts)
    program = parse_program(binding.source)
    kinds, ranked = [], decoder.top_k_rows

    def top_k_rows(rows, *args):
        kinds.append({type(row) for row in rows})
        return ranked(rows, *args)

    monkeypatch.setattr(decoder, "top_k_rows", top_k_rows)
    untraced = decoder.decode(lexical_scorer, program, binding.rule, binding.ctx, config)
    tracer = Tracer()
    traced = decoder.decode(TracedScorer(lexical_scorer, tracer), program, binding.rule,
                            binding.ctx, config)
    assert kinds and all(kind == {NgramDist} for kind in kinds)
    assert traced.best.tokens == untraced.best.tokens
    assert [h.tokens for h in traced.hypotheses] == [h.tokens for h in untraced.hypotheses]
    assert tracer.summary()["lm.step"]["calls"] > 0
