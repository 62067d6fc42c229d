"""The toy suites' decoded outputs, pinned.

Both toy scorers are built as the benchmark's ``toy-ngram`` and
``toy-transformer`` workloads build them, every instance of ``lexical20`` and
``dialogue10`` is decoded, and the best outputs are hashed the way the
benchmark digests them, so that output drift fails here and not only in a
benchmark run.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from logicdec.decoder import PRESETS, decode
from logicdec.lm import NgramScorer, ngram_train
from logicdec.rules import parse_program
from logicdec.tasks import dialogue_rule_template, lexical_rule_template, load_instances
from logicdec.transformer import TinyTransformer, TransformerConfig, TransformerScorer

from conftest import DATA, corpus_ids

DIGESTS = {"ngram": "616705dfeb86cba1", "transformer": "8cd5293b7c98f9db"}
# lexical20 under a user program with the averaging gate, whose truths are
# nonzero off their ids
SOFT_GATE_DIGESTS = {"ngram": "6c30f26515c2f7f6", "transformer": "4f3062e7ce21ef0c"}
SOFT_GATE_RULES = """
R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""


def digest_of(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def toy_scorers(scorer_kind, toy_vocab):
    """The (lexical, dialogue) scorers of a toy workload."""
    if scorer_kind == "ngram":
        return tuple(NgramScorer(ngram_train(corpus_ids(toy_vocab, DATA / corpus), order=3,
                                             vocab_size=len(toy_vocab)))
                     for corpus in ("corpus_lexical.txt", "corpus_dialogue.txt"))
    scorer = TransformerScorer(TinyTransformer(TransformerConfig(vocab_size=len(toy_vocab),
                                                                 seed=0)))
    return scorer, scorer


def lexical_config(toy_vocab):
    return replace(PRESETS["commongen"], max_length=16, bos_id=toy_vocab.id_of("<s>"),
                   eos_id=toy_vocab.id_of("</s>"), length_norm_power=1.0)


@pytest.mark.parametrize("scorer_kind", sorted(DIGESTS))
def test_best_outputs_match_the_pinned_digest(scorer_kind, toy_vocab, toy_facts):
    bos, eos = toy_vocab.id_of("<s>"), toy_vocab.id_of("</s>")
    lexical, dialogue = toy_scorers(scorer_kind, toy_vocab)
    lex_cfg = lexical_config(toy_vocab)
    dlg_cfg = replace(PRESETS["personachat"], max_length=10, bos_id=bos, eos_id=eos,
                      length_norm_power=1.0)
    outputs = []
    instances = load_instances(DATA / "lexical20.jsonl") + load_instances(DATA / "dialogue10.jsonl")
    for inst in instances:
        if inst.kind == "lexical":
            binding = lexical_rule_template(inst.concepts, toy_facts)
            scorer, config = lexical, lex_cfg
        else:
            binding = dialogue_rule_template(inst.persona, inst.history, toy_facts)
            scorer, config = dialogue, dlg_cfg
        result = decode(scorer, parse_program(binding.source), binding.rule, binding.ctx, config)
        outputs.append([inst.instance_id, list(result.best.tokens)])
    assert digest_of(outputs) == DIGESTS[scorer_kind]


@pytest.mark.parametrize("scorer_kind", sorted(SOFT_GATE_DIGESTS))
def test_soft_gate_outputs_match_the_pinned_digest(scorer_kind, toy_vocab, toy_facts):
    lexical, _ = toy_scorers(scorer_kind, toy_vocab)
    program = parse_program(SOFT_GATE_RULES)
    outputs = []
    for inst in load_instances(DATA / "lexical20.jsonl"):
        binding = lexical_rule_template(inst.concepts, toy_facts)
        result = decode(lexical, program, binding.rule, binding.ctx, lexical_config(toy_vocab))
        outputs.append([inst.instance_id, list(result.best.tokens)])
    assert digest_of(outputs) == SOFT_GATE_DIGESTS[scorer_kind]
