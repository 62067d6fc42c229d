#!/usr/bin/env python3
"""Semantically constrained dialogue: finding the bridging word.

Each pair gives the speaker a persona keyword and the user a context keyword;
exactly one vocabulary word is adjacent to both in the knowledge graph.  The
rules reward persona keywords and bridging words, so the decoder picks the
word both sides care about instead of the globally most likely response.
Run from the repository root.
"""

from dataclasses import replace
from pathlib import Path

from logicdec import (Domain, NgramScorer, Vocabulary, decode,
                      dialogue_rule_template, ingest_triples, load_instances,
                      ngram_train, parse_program, plain_beam_search, prove)
from logicdec.decoder import PRESETS

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"

vocab = Vocabulary.from_file(DATA / "vocab.txt")
facts, _ = ingest_triples(DATA / "kg.tsv", vocab, mode="soft",
                          stopwords=set((DATA / "stopwords.txt").read_text().split()),
                          blackwords=set((DATA / "blackwords.txt").read_text().split()))
bos, eos = vocab.id_of("<s>"), vocab.id_of("</s>")
corpus = [[bos] + [vocab.id_of(w) for w in line.split()] + [eos]
          for line in open(DATA / "corpus_dialogue.txt") if line.split()]
scorer = NgramScorer(ngram_train(corpus, order=3, vocab_size=len(vocab)))

baseline = plain_beam_search(scorer, 10, 10, bos_id=bos, eos_id=eos)
print("unconstrained response:",
      " ".join(vocab.token(t) for t in baseline.best.tokens[1:-1]))

config = replace(PRESETS["personachat"], max_length=10, bos_id=bos, eos_id=eos)

for inst in load_instances(DATA / "dialogue10.jsonl")[:5]:
    binding = dialogue_rule_template(inst.persona, inst.history, facts)
    program = parse_program(binding.source)
    result = decode(scorer, program, "R", binding.ctx, config)
    text = " ".join(vocab.token(t) for t in result.best.tokens[1:-1])
    truth = prove(program, "R", Domain.vocabulary(facts), binding.ctx).dense()
    top = max(range(len(vocab)), key=lambda t: truth[t])
    print(f"\npersona : {inst.persona[0]!r}")
    print(f"user    : {inst.history[0]!r}")
    print(f"highest truth value: {vocab.token(top)!r} ({truth[top]:.2f})")
    print(f"constrained response: {text!r}")
