"""Seeded synthetic world for the V=50k workloads.

The world stands in for a GPT-2-sized vocabulary with a ConceptNet-like
fact base, built from a seed with nothing committed or downloaded:

- a vocabulary of suffix families (``stem``, ``stem+s``, ``stem+ing``,
  ``stem+ed``), kept only where the package stemmer maps every form of a
  family to one stem, so stem-equality classes exist;
- a first-order Markov chain over a subset of the words ("active" words,
  each with a few Zipf-weighted successors) from which an n-gram corpus is
  sampled;
- weighted edges between the stem classes of words that follow each other
  in the chain (co-occurrence, as in ConceptNet), topped up with random
  class pairs until about ``target_edges`` token-level edges exist; each
  class edge is mirrored across every member pair, as ingestion does;
- lexical instances whose 3, 4 or 5 concepts (in turn) are drawn from
  likely walks of the chain, so that concepts get enough probability for
  the decision function to reach them (its boost ``alpha * I * p`` is
  negligible at p ~ 1/V).

Run as a script to write the world into a directory::

    python3 perfbench/world.py --seed 7 --out .perfbench/world-7

The directory then holds ``factbase.snap``, ``corpus.txt``,
``lexical.jsonl``, ``lexical_hard.rules`` and ``world.json`` (the report:
V, edges, stem classes, snapshot bytes and its sha256).  The same seed and
sizes give a byte-identical snapshot.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from logicdec.kb import FactBase, StemIndex, Vocabulary, rescale_weight  # noqa: E402
from logicdec.stemming import word_stem  # noqa: E402
from logicdec.tasks import template_text  # noqa: E402

BOS = "<s>"
SUFFIXES = ("s", "ing", "ed")
_ONSETS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_CODAS = "bdgklmnprt"
SUCCESSORS = 4        # successors per active word in the Markov chain
START_WORDS = 24      # sentence starts of the chain
WALK_STARTS = 4       # concept walks start at the strongest starts
WALK_CHOICES = 2      # and each step takes one of the strongest successors
WALK_STEPS = 8


@dataclass(frozen=True)
class WorldSpec:
    vocab_size: int = 50_000
    target_edges: int = 200_000
    active_families: int = 1_000
    sentences: int = 6_000
    instances: int = 17         # scale-50k times 16 and warms up on the last


def _families(rng: random.Random, n_tokens: int) -> list[list[str]]:
    """Suffix families totalling ``n_tokens`` words; every form of a family
    shares one stem under ``word_stem`` and no two families share a stem."""
    families: list[list[str]] = []
    seen_stems: set[str] = set()
    seen_words: set[str] = set()
    total = 0
    while total < n_tokens:
        base = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 3))) + rng.choice(_CODAS)
        s = word_stem(base)
        if s in seen_stems or base in seen_words:
            continue
        forms = [base] + [base + suf for suf in SUFFIXES[: rng.randint(0, 3)]]
        forms = [f for f in forms if f not in seen_words and word_stem(f) == s]
        forms = forms[: n_tokens - total]
        seen_stems.add(s)
        seen_words.update(forms)
        families.append(forms)
        total += len(forms)
    return families


def _zipf_pick(rng: random.Random, items: list[int]) -> int:
    weights = [1.0 / (r + 1) for r in range(len(items))]
    return rng.choices(items, weights=weights)[0]


def generate(seed: int, spec: WorldSpec = WorldSpec()):
    """Build the world in memory.

    Returns ``(facts, corpus, instances)``: the fact base, the corpus as a
    list of word lists, and the lexical instances as JSON-ready dicts.
    """
    rng = random.Random(seed)
    families = _families(rng, spec.vocab_size - 1)
    words = [BOS] + [w for fam in families for w in fam]
    vocab = Vocabulary(words)
    class_of = [0] * len(words)
    family_of_token: list[int] = [-1]
    tid = 1
    for f, fam in enumerate(families):
        for _ in fam:
            class_of[tid] = f + 1
            family_of_token.append(f)
            tid += 1
    stems = StemIndex(vocab, class_of)
    first_id = [0] * len(families)
    tid = 1
    for f, fam in enumerate(families):
        first_id[f] = tid
        tid += len(fam)

    # Markov chain over the active words; successor lists are ordered by
    # rank, so rank r has weight 1/(r+1).
    active_fams = rng.sample(range(len(families)), spec.active_families)
    active = [first_id[f] + k for f in active_fams for k in range(len(families[f]))]
    succ = {a: rng.sample(active, SUCCESSORS) for a in active}
    starts = rng.sample(active, START_WORDS)

    corpus: list[list[str]] = []
    for _ in range(spec.sentences):
        tok = _zipf_pick(rng, starts)
        sent = [tok]
        for _ in range(rng.randint(7, 13)):
            tok = _zipf_pick(rng, succ[tok])
            sent.append(tok)
        corpus.append([words[t] for t in sent])

    # Co-occurrence edges between stem classes, weighted by successor rank,
    # then random class pairs; each class edge covers all member pairs.
    class_edges: dict[tuple[int, int], float] = {}
    n_token_edges = 0

    def add_class_edge(fa: int, fb: int, raw: float) -> None:
        nonlocal n_token_edges
        if fa == fb:
            return
        key = (min(fa, fb), max(fa, fb))
        if key not in class_edges:
            n_token_edges += len(families[fa]) * len(families[fb])
        class_edges[key] = max(rescale_weight(raw), class_edges.get(key, 0.0))

    for a in active:
        for rank, b in enumerate(succ[a]):
            add_class_edge(family_of_token[a], family_of_token[b], 8.0 / (rank + 1))
    while n_token_edges < spec.target_edges:
        add_class_edge(rng.randrange(len(families)), rng.randrange(len(families)),
                       rng.uniform(0.1, 4.0))
    pairs: dict[tuple[int, int], float] = {}
    for (fa, fb), w in class_edges.items():
        for a in range(first_id[fa], first_id[fa] + len(families[fa])):
            for b in range(first_id[fb], first_id[fb] + len(families[fb])):
                pairs[(min(a, b), max(a, b))] = w
    facts = FactBase(vocab, stems, pairs, "soft")

    # Concepts come from likely walks: each step takes one of the
    # WALK_CHOICES strongest successors, and the concept is the family's
    # base form.
    instances = []
    while len(instances) < spec.instances:
        tok = rng.choice(starts[: WALK_STARTS])
        seen: list[int] = []
        for _ in range(WALK_STEPS):
            tok = rng.choice(succ[tok][: WALK_CHOICES])
            fam = family_of_token[tok]
            if fam not in seen:
                seen.append(fam)
        # 3, 4, 5, 3, ... concepts: decode cost grows with the concept count,
        # so every world gets the same mix
        k = 3 + len(instances) % 3
        if len(seen) < k:
            continue
        chosen = sorted(rng.sample(range(len(seen)), k))
        instances.append({"id": f"w{seed}-{len(instances):03d}", "kind": "lexical",
                          "concepts": [families[seen[i]][0] for i in chosen]})
    return facts, corpus, instances


def write_world(seed: int, out: Path, spec: WorldSpec = WorldSpec()) -> dict:
    """Generate the world for ``seed`` into ``out`` and return its report."""
    out.mkdir(parents=True, exist_ok=True)
    facts, corpus, instances = generate(seed, spec)
    snap = out / "factbase.snap"
    facts.save(snap)
    (out / "corpus.txt").write_text(
        "".join(" ".join(s) + "\n" for s in corpus), encoding="utf-8")
    (out / "lexical.jsonl").write_text(
        "".join(json.dumps(i) + "\n" for i in instances), encoding="utf-8")
    (out / "lexical_hard.rules").write_text(template_text("commongen_hard"),
                                           encoding="utf-8")
    blob = snap.read_bytes()
    report = {
        "seed": seed,
        "vocab_size": len(facts.vocab),
        "edges": facts.num_edges,
        "stem_classes": facts.stems.n_classes,
        "snapshot_bytes": len(blob),
        "snapshot_sha256": hashlib.sha256(blob).hexdigest(),
        "corpus_sentences": len(corpus),
        "instances": len(instances),
    }
    (out / "world.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(write_world(args.seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
