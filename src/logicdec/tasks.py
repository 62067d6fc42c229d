"""Task adapters: rule templates, instance loading, keyword extraction, and
the corpus coverage metric.

An instance's kind picks its rules.  Lexical instances carry a concept list
the output must cover, and their rules favour words related to the concepts
not yet covered; dialogue instances carry persona sentences and a dialogue
history, and the rules reward persona keywords and words bridging both
speakers' interests.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence, Union

from .kb import FactBase, align_word_to_token
from .prover import EvalContext
from .stemming import IRREGULAR_FORMS, word_stem

__all__ = [
    "TaskInstance", "TemplateBinding", "DEFAULT_STOPWORDS",
    "read_instances", "load_instances", "extract_keywords",
    "align_concepts", "lexical_rule_template", "dialogue_rule_template",
    "instance_coverage", "corpus_coverage", "template_text",
]

DEFAULT_STOPWORDS = frozenset("""
a an the and or but if then else of in on at to for with from by as is are was
were be been being am do does did have has had having i you he she it we they
me him her us them my your his its our their this that these those not no nor
so too very just like love want will would can could may might shall should
what who whom which when where why how about into over under again there here
""".split())

_WORD_RE = re.compile(r"[a-z0-9']+")


@dataclass(frozen=True)
class TaskInstance:
    kind: str                                   # "lexical" | "dialogue"
    instance_id: str = ""
    concepts: tuple[str, ...] = ()
    persona: tuple[str, ...] = ()
    history: tuple[str, ...] = ()
    reference: Optional[str] = None

    def __post_init__(self):
        if self.kind == "lexical" and not self.concepts:
            raise ValueError("lexical instance needs at least one concept")
        if self.kind == "dialogue" and not self.persona:
            raise ValueError("dialogue instance needs at least one persona sentence")
        if self.kind not in ("lexical", "dialogue"):
            raise ValueError(f"unknown instance kind {self.kind!r}")


def read_instances(path) -> Iterator[tuple[str, Union[TaskInstance, ValueError]]]:
    """Each non-blank line of a JSON-lines file, as its id (``"id"``, else the
    0-based line index) and its instance, or a ``ValueError`` naming the line:
    ``{"kind": "lexical", "concepts": [...]}`` or ``{"kind": "dialogue",
    "persona": [...], "history": [...], "reference": ...}``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if not line.strip():
                continue
            instance_id = str(lineno)
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("expected a JSON object")
                instance_id = str(rec.get("id", lineno))
                words = {key: rec.get(key, []) for key in ("concepts", "persona", "history")}
                for key, value in words.items():
                    if not isinstance(value, list) or not all(isinstance(w, str) for w in value):
                        raise ValueError(f"{key!r} must be a list of strings")
                yield instance_id, TaskInstance(
                    kind=rec.get("kind"), instance_id=instance_id, reference=rec.get("reference"),
                    **{key: tuple(value) for key, value in words.items()})
            except ValueError as exc:
                yield instance_id, ValueError(f"line {lineno + 1}: {exc}")


def load_instances(path) -> list[TaskInstance]:
    """Every instance of a JSON-lines file; raises the ``ValueError`` of the
    first malformed line (see ``read_instances``)."""
    out = [instance for _, instance in read_instances(path)]
    if bad := [instance for instance in out if isinstance(instance, ValueError)]:
        raise bad[0]
    return out


def extract_keywords(sentence: str) -> tuple[str, ...]:
    """Deterministic keyword extraction: lowercase, split on
    whitespace/punctuation, drop ``DEFAULT_STOPWORDS`` and single characters,
    map irregular inflections to their base form, collapse duplicates keeping
    first occurrence."""
    seen = []
    for word in _WORD_RE.findall(sentence.lower()):
        if len(word) < 2 or word in DEFAULT_STOPWORDS:
            continue
        word = IRREGULAR_FORMS.get(word, word)
        if word not in seen:
            seen.append(word)
    return tuple(seen)


@dataclass
class TemplateBinding:
    source: str
    ctx: EvalContext
    rule: str = "R"
    skipped: tuple[str, ...] = ()        # words that did not align to tokens


@functools.cache
def template_text(name: str) -> str:
    """Shipped rule template text by name: ``commongen_hard`` (lexical) or
    ``personachat`` (dialogue), read from the package once."""
    return resources.files("logicdec.templates").joinpath(f"{name}.rules").read_text("utf-8")


def _align_words(words: Iterable[str], facts: FactBase) -> tuple[list[int], list[str]]:
    ids, skipped = [], []
    for w in words:
        tid = align_word_to_token(w, facts.vocab)
        if tid is None:
            skipped.append(w)
        elif tid not in ids:
            ids.append(tid)
    return ids, skipped


def align_concepts(concepts: Sequence[str], facts: FactBase
                   ) -> tuple[list[int], list[str]]:
    """Token ids of a lexical instance's concepts, deduplicated, and the
    concepts that did not align; raises ``ValueError`` when none align."""
    ids, skipped = _align_words(concepts, facts)
    if not ids:
        raise ValueError("none of the concepts aligned to vocabulary tokens")
    return ids, skipped


def lexical_rule_template(concepts: Sequence[str], facts: FactBase,
                          gate: str = "luk") -> TemplateBinding:
    """Rules for covering target concepts: a word's truth is its relatedness
    to the concepts the prefix has not covered yet, and 0 for a word
    unrelated to all of them.

    ``gate`` accepts only ``"luk"``, the hard conjunction of that template;
    other rules run as a user program (``logicdec decode --rules``).
    """
    if gate != "luk":
        raise ValueError(f"gate {gate!r} is not a lexical template: the only one "
                         "is 'luk'; run other rules with --rules")
    ids, skipped = align_concepts(concepts, facts)
    ctx = EvalContext(facts=facts, sets={"C": tuple(ids)})
    return TemplateBinding(source=template_text("commongen_hard"), ctx=ctx,
                           skipped=tuple(skipped))


def dialogue_rule_template(persona: Sequence[str], history: Sequence[str],
                           facts: FactBase) -> TemplateBinding:
    """Rules rewarding persona keywords and bridging words.

    P holds keywords extracted from the persona sentences, U keywords from
    the user's utterances.  A quantifier over an empty set is a bind-time
    error, so empty sides of the bridging conjunction are replaced by the
    constant 0, preserving the disjunctive structure of the top rule.
    """
    # each side's keywords once, in first-seen order
    p_words, u_words = (list(dict.fromkeys(w for sent in side for w in extract_keywords(sent)))
                        for side in (persona, history))

    p_ids, p_skipped = _align_words(p_words, facts)
    u_ids, u_skipped = _align_words(u_words, facts)
    if not p_ids:
        raise ValueError("persona produced no alignable keywords")

    source, sets = template_text("personachat"), {"P": tuple(p_ids), "U": tuple(u_ids)}
    if not u_ids:
        source = source.replace("(exists u in U, Edge(x, u))", "0")
        del sets["U"]
    return TemplateBinding(source=source, ctx=EvalContext(facts=facts, sets=sets),
                           skipped=tuple(p_skipped + u_skipped))


# ---------------------------------------------------------------------------
# Coverage metric

def instance_coverage(output_text: str, concepts: Sequence[str]) -> float:
    """Fraction of concepts with a stem-mate among the output words."""
    if not concepts:
        return 1.0
    stems = {word_stem(w) for w in _WORD_RE.findall(output_text.lower())}
    hit = sum(1 for c in concepts if word_stem(c.lower()) in stems)
    return hit / len(concepts)


def corpus_coverage(outputs: Sequence[str], instances: Sequence[TaskInstance]) -> float:
    """Mean per-instance covered-concept fraction, in percent."""
    if len(outputs) != len(instances):
        raise ValueError(f"{len(outputs)} outputs vs {len(instances)} instances")
    if not instances:
        raise ValueError("no instances")
    total = sum(instance_coverage(out, inst.concepts)
                for out, inst in zip(outputs, instances))
    return 100.0 * total / len(instances)
