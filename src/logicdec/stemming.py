"""Deterministic suffix-stripping stemmer used to build stem-equality classes.

Classic Porter-style reduction plus a small table of irregular forms, so that
morphological variants like ``run / runs / running / ran`` land in one class.
The exact outputs are frozen by golden vectors in the test suite; changing
this module changes every stored fact base.
"""

from __future__ import annotations

__all__ = ["stem", "word_stem", "IRREGULAR_FORMS"]

# Irregular inflections normalised before suffix stripping.  Deliberately
# small: only forms that suffix rules cannot reach.
IRREGULAR_FORMS = {
    "ran": "run",
    "went": "go",
    "gone": "go",
    "ate": "eat",
    "eaten": "eat",
    "saw": "see",
    "seen": "see",
    "took": "take",
    "taken": "take",
    "gave": "give",
    "given": "give",
    "made": "make",
    "said": "say",
    "children": "child",
    "men": "man",
    "women": "woman",
    "mice": "mouse",
    "feet": "foot",
    "teeth": "tooth",
    "geese": "goose",
}

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(word: str) -> int:
    # Number of VC sequences in [C](VC)^m[V].
    m = 0
    prev_vowel = False
    for i in range(len(word)):
        if _is_consonant(word, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(word: str) -> bool:
    return any(not _is_consonant(word, i) for i in range(len(word)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str:
    # ``word`` ends with ``suffix``
    stem_part = word[: len(word) - len(suffix)]
    if _measure(stem_part) > min_measure - 1:
        return stem_part + repl
    return word


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    hit = None
    if w.endswith("ed") and _contains_vowel(w[:-2]):
        hit = w[:-2]
    elif w.endswith("ing") and _contains_vowel(w[:-3]):
        hit = w[:-3]
    if hit is None:
        return w
    if hit.endswith(("at", "bl", "iz")):
        return hit + "e"
    if _ends_double_consonant(hit) and hit[-1] not in "lsz":
        return hit[:-1]
    if _measure(hit) == 1 and _ends_cvc(hit):
        return hit + "e"
    return hit


def _step1c(w: str) -> str:
    if w.endswith("y") and _contains_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _apply_table(w: str, table, min_measure: int) -> str:
    for suffix, repl in table:
        if w.endswith(suffix):
            return _replace(w, suffix, repl, min_measure)
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem_part = w[: len(w) - len(suffix)]
            if _measure(stem_part) > 1:
                if suffix == "ion" and (not stem_part or stem_part[-1] not in "st"):
                    return w
                return stem_part
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem_part = w[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            w = stem_part
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]
    return w


def stem(word: str) -> str:
    """Suffix-strip a lower-case word. Words of length <= 2 pass through."""
    if len(word) <= 2:
        return word
    w = _step1a(word)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_table(w, _STEP2, 1)
    w = _apply_table(w, _STEP3, 1)
    w = _step4(w)
    w = _step5(w)
    return w


def word_stem(word: str) -> str:
    """Canonical stem of an arbitrary surface word.

    Lower-cases, maps irregular forms to their base, then suffix-strips.
    Non-alphabetic strings (markup tokens, punctuation) pass through
    lower-cased so that every token has a well-defined class.
    """
    w = word.lower()
    if not w.isalpha():
        return w
    w = IRREGULAR_FORMS.get(w, w)
    return stem(w)
