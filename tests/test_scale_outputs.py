"""The V=50k world's decoded outputs, pinned.

The benchmark's ``scale-50k`` workload decodes the seeded world of
``perfbench/world.py`` with a vocabulary past ``decision.FULL_RANK_MAX_V``,
where the decoder ranks only the candidates that can reach the top k.  This
decodes the first 16 instances of the seed-7 world (written once per session
by the ``world_7`` fixture) as that workload does and hashes the best outputs
the way the benchmark digests them, so that output drift on the
large-vocabulary path fails here and not only in a benchmark run, and so
does a step that leaves the candidate path for the V-long whole-row ranking,
traced or not.
On the same world, a vocabulary prove must not allocate a vector over the
vocabulary.
"""

import tracemalloc
from dataclasses import replace

from logicdec import decision
from logicdec.decision import FULL_RANK_MAX_V
from logicdec.decoder import PRESETS, decode
from logicdec.kb import load_factbase
from logicdec.lm import NgramScorer, ngram_train
from logicdec.prover import Domain, EvalContext, prove
from logicdec.rules import parse_program
from logicdec.tasks import lexical_rule_template, load_instances

from test_toy_outputs import digest_of

DIGEST = "880e172028d25487"


def test_seed_7_world_outputs_match_the_pinned_digest(world_7, monkeypatch):
    facts = load_factbase(world_7 / "factbase.snap")
    vocab = facts.vocab
    assert len(vocab) > FULL_RANK_MAX_V
    bos = vocab.id_of("<s>")
    corpus = [[bos] + [vocab.id_of(w) for w in line.split()]
              for line in (world_7 / "corpus.txt").read_text("utf-8").splitlines()
              if line.split()]
    scorer = NgramScorer(ngram_train(corpus, order=3, vocab_size=len(vocab)))
    # the scale-50k config: commongen intensities, a full beam for 16 steps
    config = replace(PRESETS["commongen"], prune_ratio=1e-9, max_length=16, bos_id=bos,
                     eos_id=None, length_norm_power=1.0)
    whole = []  # rows ranked whole: each is V long, none is expected here
    rank_whole = decision._top_k_of_whole
    monkeypatch.setattr(decision, "_top_k_of_whole",
                        lambda rows, *args: whole.append(len(rows)) or rank_whole(rows, *args))
    for trace in (False, True):  # a traced decode ranks its trace on the candidate path too
        outputs = []
        for inst in load_instances(world_7 / "lexical.jsonl")[:16]:
            binding = lexical_rule_template(inst.concepts, facts)
            result = decode(scorer, parse_program(binding.source), binding.rule, binding.ctx,
                            config, trace=trace)
            assert len(result.trace) == (result.steps if trace else 0)
            outputs.append([inst.instance_id, list(result.best.tokens)])
        assert digest_of(outputs) == DIGEST
        assert whole == []


def test_a_warm_vocabulary_prove_allocates_less_than_one_vocabulary_vector(world_7):
    facts = load_factbase(world_7 / "factbase.snap")
    vocabulary = Domain.vocabulary(facts)
    inst = load_instances(world_7 / "lexical.jsonl")[0]
    binding = lexical_rule_template(inst.concepts, facts)
    program = parse_program(binding.source)
    ctx = EvalContext(facts, {**binding.ctx.sets, "Prev": (facts.vocab.id_of("<s>"),)})
    prove(program, "R", vocabulary, ctx)  # warm: the stem classes' member index is built
    tracemalloc.start()
    try:
        truth = prove(program, "R", vocabulary, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(truth.ids)
    assert peak < 8 * len(facts.vocab), peak  # one float64 per token: 400 KB
