import base64
import pathlib
import sys

import numpy as np
import pytest

from logicdec import (FactBase, NgramScorer, Vocabulary, ingest_triples,
                      ngram_train)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "toy"

sys.path.insert(0, str(ROOT / "perfbench"))

from world import write_world  # noqa: E402


def p_shifted_of(reply: dict) -> np.ndarray:
    """A service ``decide`` reply's ``p_shifted``, decoded as a client does."""
    return np.frombuffer(base64.b64decode(reply["p_shifted"]), "<f8")


def read_words(path):
    return frozenset(w.strip() for w in open(path, encoding="utf-8") if w.strip())


@pytest.fixture(scope="session")
def world_7(tmp_path_factory) -> pathlib.Path:
    """The seed-7 V=50k world of ``perfbench/world.py``, written once per
    session: ``factbase.snap``, ``corpus.txt`` and ``lexical.jsonl``."""
    out = tmp_path_factory.mktemp("world-7")
    write_world(7, out)
    return out


@pytest.fixture(scope="session")
def toy_vocab() -> Vocabulary:
    return Vocabulary.from_file(DATA / "vocab.txt")


@pytest.fixture(scope="session")
def toy_facts(toy_vocab) -> FactBase:
    facts, _ = ingest_triples(DATA / "kg.tsv", toy_vocab, mode="soft",
                              stopwords=read_words(DATA / "stopwords.txt"),
                              blackwords=read_words(DATA / "blackwords.txt"))
    return facts


def corpus_ids(vocab: Vocabulary, path) -> list[list[int]]:
    bos, eos = vocab.id_of("<s>"), vocab.id_of("</s>")
    out = []
    for line in open(path, encoding="utf-8"):
        words = line.split()
        if words:
            out.append([bos] + [vocab.id_of(w) for w in words] + [eos])
    return out


@pytest.fixture(scope="session")
def lexical_scorer(toy_vocab) -> NgramScorer:
    lm = ngram_train(corpus_ids(toy_vocab, DATA / "corpus_lexical.txt"),
                     order=3, vocab_size=len(toy_vocab))
    return NgramScorer(lm)


@pytest.fixture(scope="session")
def dialogue_scorer(toy_vocab) -> NgramScorer:
    lm = ngram_train(corpus_ids(toy_vocab, DATA / "corpus_dialogue.txt"),
                     order=3, vocab_size=len(toy_vocab))
    return NgramScorer(lm)


@pytest.fixture(scope="session")
def sentinel_ids(toy_vocab):
    return toy_vocab.id_of("<s>"), toy_vocab.id_of("</s>")
