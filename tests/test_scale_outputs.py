"""The V=50k world's decoded outputs, pinned.

The benchmark's ``scale-50k`` workload decodes the seeded world of
``perfbench/world.py`` with a vocabulary past ``decision.FULL_RANK_MAX_V``,
where the decoder ranks only the candidates that can reach the top k.  This
writes the seed-7 world, decodes its first 16 instances as that workload does
and hashes the best outputs the way the benchmark digests them, so that
output drift on the large-vocabulary path fails here and not only in a
benchmark run.
"""

import sys
from dataclasses import replace
from pathlib import Path

from logicdec.decision import FULL_RANK_MAX_V
from logicdec.decoder import PRESETS, decode
from logicdec.kb import load_factbase
from logicdec.lm import NgramScorer, ngram_train
from logicdec.rules import parse_program
from logicdec.tasks import lexical_rule_template, load_instances

from test_toy_outputs import digest_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from world import write_world  # noqa: E402

SEED, DIGEST = 7, "880e172028d25487"


def test_seed_7_world_outputs_match_the_pinned_digest(tmp_path):
    write_world(SEED, tmp_path)
    facts = load_factbase(tmp_path / "factbase.snap")
    vocab = facts.vocab
    assert len(vocab) > FULL_RANK_MAX_V
    bos = vocab.id_of("<s>")
    corpus = [[bos] + [vocab.id_of(w) for w in line.split()]
              for line in (tmp_path / "corpus.txt").read_text("utf-8").splitlines()
              if line.split()]
    scorer = NgramScorer(ngram_train(corpus, order=3, vocab_size=len(vocab)))
    # the scale-50k config: commongen intensities, a full beam for 16 steps
    config = replace(PRESETS["commongen"], prune_ratio=1e-9, max_length=16, bos_id=bos,
                     eos_id=None, length_norm_power=1.0)
    outputs = []
    for inst in load_instances(tmp_path / "lexical.jsonl")[:16]:
        binding = lexical_rule_template(inst.concepts, facts, gate="luk")
        result = decode(scorer, parse_program(binding.source), binding.rule, binding.ctx,
                        config)
        outputs.append([inst.instance_id, list(result.best.tokens)])
    assert digest_of(outputs) == DIGEST
