#!/usr/bin/env python3
"""Regenerate the committed toy data under data/toy/.

The corpora are engineered so that unconstrained beam search settles on
filler words while the constrained decoder can reach every target:
- lexical object slots give each concept enough probability that the
  prediction boost at the shipped intensity flips the slot, and sentence
  continuation ("and the ...") is likely enough that covering several
  concepts in one sentence out-scores stopping early;
- dialogue responses share one shape with the bridge words rare enough to
  never win unconstrained, common enough to dominate once boosted.

Run from the repository root:  python tools/gen_toy_data.py [--out DIR]
(``DIR`` defaults to data/toy).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logicdec.tasks import DEFAULT_STOPWORDS, extract_keywords  # noqa: E402

SPECIALS = ["<s>", "</s>"]
LEXICAL_WORDS = ["the", "a", "man", "woman", "child", "friend",
                 "saw", "took", "found", "liked", "visited",
                 "house", "road", "table", "chair", "door", "and"]
CONCEPTS = ["garden", "piano", "river", "market", "forest", "library", "castle", "orchard"]
RELATED = ["flowers", "music", "water", "bread", "trees", "books", "stone", "fruit"]
DIALOGUE_WORDS = ["i", "love", "my", "job", "phone", "radio",
                  "dog", "cat", "bike", "tea", "boat", "paint"]
KEYWORDS = ["pets", "animals", "kitten", "fur", "melody", "concert",
            "novels", "stories", "cycling", "wheels", "leaves", "cups",
            "singing", "rhythm", "sailing", "ocean", "painting", "colors", "soil"]
MISC = ["park", "walk", "walks", "walking", "walked", "run", "runs", "running", "ran"]

VOCAB = SPECIALS + LEXICAL_WORDS + CONCEPTS + RELATED + DIALOGUE_WORDS + KEYWORDS + MISC

SUBJECTS = ["man", "woman", "child", "friend"]
VERBS = ["saw", "took", "found", "liked", "visited"]

# Object-slot counts per block of sentences.  Fillers beat every concept so
# the unconstrained argmax never covers anything.
OBJECT_COUNTS = [("house", 12), ("road", 7), ("table", 5), ("chair", 4)] + \
    [(c, 8) for c in CONCEPTS]

# Continuation patterns: after the first object 9 of 10 sentences extend
# with "and the <obj>"; after the second, 3 of 5 extend again.  Merged over
# slot positions this keeps "and" more likely than "</s>" in every
# (the, <obj>) context, so stopping early carries a real likelihood cost.
EXTEND_FIRST = [True] * 9 + [False]
EXTEND_SECOND = [True, False, True, True, False]

# Dialogue response slot counts.
RESPONSE_COUNTS = [("job", 30), ("phone", 20), ("radio", 12),
                   ("dog", 9), ("cat", 9), ("piano", 9), ("books", 9),
                   ("bike", 9), ("tea", 9), ("garden", 9), ("music", 9),
                   ("boat", 9), ("paint", 9)]

# (persona sentence, history utterance, persona keyword, user keyword, bridge)
DIALOGUE_PAIRS = [
    ("i have pets", "do you like animals ?", "pets", "animals", "dog"),
    ("i have a kitten", "do you like fur ?", "kitten", "fur", "cat"),
    ("i play a melody every day", "do you like a concert ?", "melody", "concert", "piano"),
    ("i write novels", "do you like stories ?", "novels", "stories", "books"),
    ("i enjoy cycling", "do you like wheels ?", "cycling", "wheels", "bike"),
    ("i collect leaves", "do you like cups ?", "leaves", "cups", "tea"),
    ("i grow flowers", "do you like soil ?", "flowers", "soil", "garden"),
    ("i enjoy singing", "do you like rhythm ?", "singing", "rhythm", "music"),
    ("i go sailing", "do you like the ocean ?", "sailing", "ocean", "boat"),
    ("i enjoy painting", "do you like colors ?", "painting", "colors", "paint"),
]

# Main knowledge graph: lexical concept<->related plus dialogue bridges.
KG_MAIN = [
    ("garden", "relatedto", "flowers", 6.0),
    ("piano", "relatedto", "music", 6.0),
    ("river", "relatedto", "water", 6.0),
    ("market", "relatedto", "bread", 6.0),
    ("forest", "relatedto", "trees", 6.0),
    ("library", "relatedto", "books", 6.0),
    ("castle", "relatedto", "stone", 6.0),
    ("orchard", "relatedto", "fruit", 6.0),
    ("dog", "relatedto", "pets", 6.0),
    ("dog", "relatedto", "animals", 6.0),
    ("cat", "relatedto", "kitten", 6.0),
    ("cat", "relatedto", "fur", 6.0),
    ("piano", "relatedto", "melody", 6.0),
    ("piano", "relatedto", "concert", 6.0),
    ("books", "relatedto", "novels", 6.0),
    ("books", "relatedto", "stories", 6.0),
    ("bike", "relatedto", "cycling", 6.0),
    ("bike", "relatedto", "wheels", 6.0),
    ("tea", "relatedto", "leaves", 6.0),
    ("tea", "relatedto", "cups", 6.0),
    ("garden", "relatedto", "soil", 6.0),
    ("music", "relatedto", "singing", 6.0),
    ("music", "relatedto", "rhythm", 6.0),
    ("boat", "relatedto", "sailing", 6.0),
    ("boat", "relatedto", "ocean", 6.0),
    ("paint", "relatedto", "painting", 6.0),
    ("paint", "relatedto", "colors", 6.0),
    # exercises multi-word decomposition: "city" is out of vocabulary
    ("city park", "atlocation", "trees", 2.0),
    # dropped by the stop-word / black-word filters
    ("the", "relatedto", "dog", 1.0),
    ("crud", "relatedto", "dog", 1.0),
    # stem-closure seed: walk/walks/walking/walked all gain the edge
    ("walk", "usedfor", "park", 1.0),
    ("run", "usedfor", "park", 1.0),
]

# Ten-line audit fixture: exactly two relations discard (both out of
# vocabulary), eight keep.
KG_SMALL = [
    ("garden", "relatedto", "flowers", 6.0),
    ("piano", "relatedto", "music", 6.0),
    ("river", "relatedto", "water", 1.5),
    ("zephyr", "relatedto", "dog", 1.0),
    ("dog", "relatedto", "unicorns", 1.0),
    ("market", "relatedto", "bread", 6.0),
    ("forest", "relatedto", "trees", 2.5),
    ("library", "relatedto", "books", 6.0),
    ("walk", "usedfor", "park", 1.0),
    ("castle", "madeof", "stone", 3.0),
]

BLACKWORDS = ["crud", "darn"]

LEXICAL_INSTANCES = [
    ["garden", "piano"], ["river", "market"], ["forest", "library"],
    ["castle", "orchard"], ["garden", "river"], ["piano", "market"],
    ["forest", "castle"], ["library", "orchard"], ["garden", "forest"],
    ["piano", "library"],
    ["garden", "piano", "river"], ["market", "forest", "library"],
    ["castle", "orchard", "garden"], ["piano", "river", "forest"],
    ["market", "library", "castle"], ["orchard", "garden", "piano"],
    ["river", "forest", "market"], ["library", "castle", "orchard"],
    ["garden", "market", "castle"], ["piano", "forest", "orchard"],
]


def lexical_corpus() -> list[str]:
    sentences = []
    object_stream = []
    for obj, count in OBJECT_COUNTS:
        object_stream += [obj] * count
    # interleave objects so subject/verb/continuation cycles hit each object
    # uniformly: round-robin over the per-object pools
    pools = {obj: [obj] * count for obj, count in OBJECT_COUNTS}
    stream = []
    while any(pools.values()):
        for obj, _ in OBJECT_COUNTS:
            if pools[obj]:
                stream.append(pools[obj].pop())
    second = list(stream)
    si = vi = e1 = e2 = 0
    k = 0
    for obj in stream:
        subj = SUBJECTS[si % len(SUBJECTS)]
        verb = VERBS[vi % len(VERBS)]
        si += 1
        vi += 1
        words = ["the", subj, verb, "the", obj]
        if EXTEND_FIRST[e1 % len(EXTEND_FIRST)]:
            words += ["and", "the", second[k % len(second)]]
            k += 7  # co-prime stride so pairs vary
            if EXTEND_SECOND[e2 % len(EXTEND_SECOND)]:
                words += ["and", "the", second[k % len(second)]]
                k += 7
            e2 += 1
        e1 += 1
        sentences.append(" ".join(words))
    return sentences


def dialogue_corpus() -> list[str]:
    sentences = []
    for word, count in RESPONSE_COUNTS:
        sentences += [f"i love my {word}"] * count
    return sentences


def check_world() -> None:
    vocab = set(VOCAB)
    assert len(vocab) == len(VOCAB), "duplicate vocabulary entries"
    for sent in lexical_corpus() + dialogue_corpus():
        for word in sent.split():
            assert word in vocab, f"corpus word {word!r} missing from vocabulary"
    # each dialogue pair must have exactly one bridge connecting both sides
    adjacency: dict[str, set[str]] = {}
    for h, _r, t, _w in KG_MAIN:
        for hw in h.split():
            for tw in t.split():
                adjacency.setdefault(hw, set()).add(tw)
                adjacency.setdefault(tw, set()).add(hw)
    for persona, history, p_kw, u_kw, bridge in DIALOGUE_PAIRS:
        # only keywords that survive vocabulary alignment matter
        extracted_p = [w for w in extract_keywords(persona) if w in vocab]
        assert extracted_p == [p_kw], (persona, extracted_p)
        extracted_u = [w for w in extract_keywords(history) if w in vocab]
        assert extracted_u == [u_kw], (history, extracted_u)
        common = adjacency.get(p_kw, set()) & adjacency.get(u_kw, set())
        assert common == {bridge}, (persona, common)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "data" / "toy",
                    help="directory to write the toy data into (default: data/toy)")
    out = ap.parse_args().out
    check_world()
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.txt").write_text("\n".join(VOCAB) + "\n", encoding="utf-8")
    (out / "corpus_lexical.txt").write_text("\n".join(lexical_corpus()) + "\n", encoding="utf-8")
    (out / "corpus_dialogue.txt").write_text("\n".join(dialogue_corpus()) + "\n", encoding="utf-8")
    (out / "kg.tsv").write_text(
        "".join(f"{h}\t{r}\t{t}\t{w}\n" for h, r, t, w in KG_MAIN), encoding="utf-8")
    (out / "kg_small.tsv").write_text(
        "".join(f"{h}\t{r}\t{t}\t{w}\n" for h, r, t, w in KG_SMALL), encoding="utf-8")
    (out / "stopwords.txt").write_text("\n".join(sorted(DEFAULT_STOPWORDS)) + "\n", encoding="utf-8")
    (out / "blackwords.txt").write_text("\n".join(BLACKWORDS) + "\n", encoding="utf-8")
    with open(out / "lexical20.jsonl", "w", encoding="utf-8") as fh:
        for i, concepts in enumerate(LEXICAL_INSTANCES):
            fh.write(json.dumps({"id": f"lex{i:02d}", "kind": "lexical",
                                 "concepts": concepts}) + "\n")
    with open(out / "dialogue10.jsonl", "w", encoding="utf-8") as fh:
        for i, (persona, history, _p, _u, bridge) in enumerate(DIALOGUE_PAIRS):
            fh.write(json.dumps({
                "id": f"dlg{i:02d}", "kind": "dialogue",
                "persona": [persona], "history": [history],
                "reference": f"i love my {bridge}",
            }) + "\n")
    print(f"wrote toy data to {out}")


if __name__ == "__main__":
    main()
