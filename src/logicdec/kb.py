"""Fact storage: vocabulary, stem-equality classes, and the weighted concept
adjacency, all aligned to token ids.

Word-level knowledge-graph triples are ingested into a symmetric sparse
matrix over the scorer vocabulary.  Edges are stored per token id; the soft
variant keeps rescaled weights in (0, 1), the hard variant stores 1.0.  Every
stored edge is mirrored across the stem classes of both endpoints so that
morphological variants match the same facts.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .stemming import word_stem

__all__ = [
    "WORD_BOUNDARY", "Vocabulary", "StemIndex", "FactBase", "IngestReport",
    "align_word_to_token", "ingest_triples", "equal_vector", "edge_vector",
    "rescale_weight", "load_factbase", "SnapshotError",
]

# Leading marker on word-initial tokens, the usual byte-BPE convention.
WORD_BOUNDARY = "Ġ"

_SNAPSHOT_MAGIC = b"LDFB"
_SNAPSHOT_VERSION = 1


class Vocabulary:
    """Dense token id <-> surface string bijection."""

    def __init__(self, tokens: Sequence[str]):
        toks = tuple(tokens)
        if len(set(toks)) != len(toks):
            raise ValueError("vocabulary contains duplicate tokens")
        self._tokens = toks
        self._index = {tok: i for i, tok in enumerate(toks)}

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            toks = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(toks)

    def __len__(self) -> int:
        return len(self._tokens)

    def id_of(self, token: str) -> Optional[int]:
        return self._index.get(token)

    def token(self, token_id: int) -> str:
        return self._tokens[token_id]

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def surface(self, token_id: int) -> str:
        """Surface form with any word-boundary marker stripped."""
        return self._tokens[token_id].removeprefix(WORD_BOUNDARY)


def _greedy_pieces(text: str, vocab: Vocabulary) -> Optional[list[int]]:
    """Longest-prefix-match split of ``text`` into vocabulary pieces."""
    pieces: list[int] = []
    pos = 0
    while pos < len(text):
        best = None
        for end in range(len(text), pos, -1):
            tid = vocab.id_of(text[pos:end])
            if tid is not None:
                best = (tid, end)
                break
        if best is None:
            return None
        pieces.append(best[0])
        pos = best[1]
    return pieces


def align_word_to_token(word: str, vocab: Vocabulary, policy: str = "first") -> Optional[int]:
    """Map a surface word onto a single token id.

    The word-initial form (boundary marker prepended) is preferred over the
    bare form.  A word that only exists as a multi-token split contributes
    its first piece as the semantic representative under the default
    ``"first"`` policy; ``"exact"`` accepts whole-token matches only.
    Returns ``None`` when nothing in the vocabulary matches.
    """
    if not word:
        raise ValueError("cannot align an empty word")
    if policy not in ("first", "exact"):
        raise ValueError(f"unknown alignment policy {policy!r}")
    for candidate in (WORD_BOUNDARY + word, word):
        tid = vocab.id_of(candidate)
        if tid is not None:
            return tid
    if policy == "exact":
        return None
    for candidate in (WORD_BOUNDARY + word, word):
        pieces = _greedy_pieces(candidate, vocab)
        if pieces:
            return pieces[0]
    return None


class StemIndex:
    """Partition of the vocabulary into stem-equality classes."""

    def __init__(self, vocab: Vocabulary, class_of: Optional[np.ndarray] = None):
        if class_of is None:
            stems: dict[str, int] = {}
            ids = np.empty(len(vocab), dtype=np.int32)
            for tid in range(len(vocab)):
                s = word_stem(vocab.surface(tid))
                ids[tid] = stems.setdefault(s, len(stems))
            self.class_of = ids
            self.n_classes = len(stems)
        else:
            self.class_of = np.asarray(class_of, dtype=np.int32)
            if len(self.class_of) != len(vocab):
                raise ValueError("stem table length does not match vocabulary")
            self.n_classes = int(self.class_of.max()) + 1 if len(self.class_of) else 0
        members: dict[int, list[int]] = {}
        for tid, cid in enumerate(self.class_of):
            members.setdefault(int(cid), []).append(tid)
        self.members = {cid: tuple(tids) for cid, tids in members.items()}

    def same_class(self, a: int, b: int) -> bool:
        return int(self.class_of[a]) == int(self.class_of[b])

    def class_members(self, token_id: int) -> tuple[int, ...]:
        return self.members[int(self.class_of[token_id])]


def rescale_weight(raw: float) -> float:
    """Map a nonnegative raw relation weight into (0, 1).

    Monotone saturating map, clamped away from the endpoints so soft and
    hard fact bases stay distinguishable.
    """
    if raw < 0:
        raise ValueError(f"negative relation weight {raw!r}")
    w = raw / (raw + 1.0)
    return min(0.95, max(0.05, w))


class FactBase:
    """Immutable fact store: vocabulary + stem classes + weighted adjacency.

    The adjacency is kept twice: a pair dictionary for scalar lookups and a
    compressed sparse column layout for whole-vocabulary slices.  Both views
    are built from the same symmetric edge set.
    """

    def __init__(self, vocab: Vocabulary, stems: StemIndex,
                 pairs: Mapping[tuple[int, int], float], mode: str):
        if mode not in ("soft", "hard"):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        self.vocab = vocab
        self.stems = stems
        self.mode = mode
        n = len(vocab)
        sym: dict[tuple[int, int], float] = {}
        for (a, b), w in pairs.items():
            if a == b:
                raise ValueError(f"self-loop on token {a}")
            if not (a < n and b < n) or a < 0 or b < 0:
                raise ValueError(f"edge ({a}, {b}) outside vocabulary of size {n}")
            if not (0.0 < w <= 1.0):
                raise ValueError(f"edge weight {w!r} outside (0, 1]")
            if mode == "hard" and w != 1.0:
                raise ValueError("hard mode stores weight 1.0 only")
            sym[(a, b)] = w
            sym[(b, a)] = w
        self._pairs = sym
        cols = np.fromiter((c for (_, c) in sym), dtype=np.int64, count=len(sym))
        rows = np.fromiter((r for (r, _) in sym), dtype=np.int64, count=len(sym))
        vals = np.fromiter(sym.values(), dtype=np.float64, count=len(sym))
        order = np.lexsort((rows, cols))
        self._csc_rows = rows[order].astype(np.int32)
        self._csc_vals = vals[order]
        self._csc_indptr = np.searchsorted(cols[order], np.arange(n + 1)).astype(np.int64)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(cls, vocab: Vocabulary,
                   edges: Iterable[tuple[int, int, float]],
                   mode: str = "soft") -> "FactBase":
        pairs: dict[tuple[int, int], float] = {}
        for a, b, w in edges:
            key = (min(a, b), max(a, b))
            pairs[key] = max(w, pairs.get(key, 0.0))
        return cls(vocab, StemIndex(vocab), pairs, mode)

    # -- scalar fact access (word-by-word path) ------------------------------

    def edge_weight(self, a: int, b: int) -> float:
        return self._pairs.get((a, b), 0.0)

    def same_stem(self, a: int, b: int) -> bool:
        return self.stems.same_class(a, b)

    # -- vector fact access (whole-domain path) -------------------------------

    def edge_column(self, p: int) -> np.ndarray:
        """Dense column ``p`` of the adjacency matrix as float64 over V."""
        out = np.zeros(len(self.vocab), dtype=np.float64)
        lo, hi = self._csc_indptr[p], self._csc_indptr[p + 1]
        out[self._csc_rows[lo:hi]] = self._csc_vals[lo:hi]
        return out

    @property
    def num_edges(self) -> int:
        return len(self._pairs) // 2

    def edges(self) -> Iterable[tuple[int, int, float]]:
        for (a, b), w in sorted(self._pairs.items()):
            if a < b:
                yield a, b, w

    # -- snapshot ------------------------------------------------------------

    def save(self, path) -> None:
        vocab_blob = "\n".join(self.vocab.tokens).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_SNAPSHOT_MAGIC)
            fh.write(struct.pack("<HBB", _SNAPSHOT_VERSION, 1 if self.mode == "soft" else 0, 0))
            fh.write(struct.pack("<IQ", len(self.vocab), len(vocab_blob)))
            fh.write(vocab_blob)
            fh.write(struct.pack("<I", self.stems.n_classes))
            fh.write(self.stems.class_of.astype("<i4").tobytes())
            fh.write(struct.pack("<Q", len(self._csc_rows)))
            fh.write(self._csc_indptr.astype("<i8").tobytes())
            fh.write(self._csc_rows.astype("<i4").tobytes())
            fh.write(self._csc_vals.astype("<f8").tobytes())


class SnapshotError(ValueError):
    """A fact-base snapshot that is truncated, oversized or inconsistent."""

    def __init__(self, path, section: str, problem: str):
        super().__init__(f"{path}: {section}: {problem}")
        self.path, self.section = path, section


def load_factbase(path) -> FactBase:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(section: str, size: int) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise SnapshotError(path, section, f"truncated: needs {size} bytes at "
                                f"offset {pos}, {len(blob) - pos} left")
        pos += size
        return blob[pos - size:pos]

    if take("magic", 4) != _SNAPSHOT_MAGIC:
        raise SnapshotError(path, "magic", "not a fact-base snapshot")
    version, soft, _ = struct.unpack("<HBB", take("header", 4))
    if version != _SNAPSHOT_VERSION:
        raise SnapshotError(path, "header", f"unsupported snapshot version {version}")
    n, vocab_len = struct.unpack("<IQ", take("vocabulary size", 12))
    vocab = Vocabulary(take("vocabulary", vocab_len).decode("utf-8").split("\n") if vocab_len else [])
    if len(vocab) != n:
        raise SnapshotError(path, "vocabulary", "vocabulary size mismatch")
    (n_classes,) = struct.unpack("<I", take("stem classes", 4))
    stems = StemIndex(vocab, np.frombuffer(take("stem table", 4 * n), dtype="<i4"))
    if stems.n_classes != n_classes:
        raise SnapshotError(path, "stem table", "stem table corrupt")
    (nnz,) = struct.unpack("<Q", take("edge count", 8))
    indptr = np.frombuffer(take("edge index", 8 * (n + 1)), dtype="<i8")
    rows = np.frombuffer(take("edge rows", 4 * nnz), dtype="<i4")
    vals = np.frombuffer(take("edge weights", 8 * nnz), dtype="<f8")
    if pos != len(blob):
        raise SnapshotError(path, "end", f"{len(blob) - pos} trailing bytes")
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise SnapshotError(path, "edge index", "edge arrays corrupt")
    pairs = {}
    for col in range(n):
        for k in range(indptr[col], indptr[col + 1]):
            pairs[(int(rows[k]), col)] = float(vals[k])
    half = {(a, b): w for (a, b), w in pairs.items() if a < b}
    return FactBase(vocab, stems, half, "soft" if soft else "hard")


# ---------------------------------------------------------------------------
# Vectorised predicates

def equal_vector(domain: Sequence[int], y: int, facts: FactBase) -> np.ndarray:
    """Truth values of stem-equality between each domain token and ``y``."""
    if not (0 <= y < len(facts.vocab)):
        raise ValueError(f"token id {y} outside vocabulary")
    ids = np.asarray(domain, dtype=np.int64)
    cls = facts.stems.class_of
    return (cls[ids] == cls[y]).astype(np.float64)


def edge_vector(X: np.ndarray, p: int, facts: FactBase) -> np.ndarray:
    """Elementwise product of a bag-of-words vector over V with column ``p``
    of the adjacency matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (len(facts.vocab),):
        raise ValueError("bag-of-words vector must cover the whole vocabulary")
    return X * facts.edge_column(p)


# ---------------------------------------------------------------------------
# Triple ingestion

@dataclass
class IngestReport:
    lines_read: int = 0
    malformed: int = 0
    relations: int = 0
    kept: int = 0
    discarded: int = 0
    edges: int = 0
    stem_classes: int = 0
    discard_reasons: dict = field(default_factory=dict)

    def note_discard(self, reason: str) -> None:
        self.discarded += 1
        self.discard_reasons[reason] = self.discard_reasons.get(reason, 0) + 1


def _phrase_words(phrase: str, stopwords: frozenset[str], blackwords: frozenset[str]) -> list[str]:
    words = []
    for w in phrase.lower().replace("_", " ").split():
        if w in stopwords or w in blackwords:
            continue
        words.append(w)
    return words


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def ingest_triples(source, vocab: Vocabulary, mode: str = "soft",
                   stopwords: Iterable[str] = (), blackwords: Iterable[str] = (),
                   ) -> tuple[FactBase, IngestReport]:
    """Build a fact base from tab-separated ``head relation tail [weight]``
    records.

    Multi-word phrases decompose into pairwise single-word relationships.
    A relationship is discarded when either side fails to align to a token,
    survives only as a stop/black word, or collapses to a self-loop.  After
    ingestion every edge is extended across the stem classes of both
    endpoints.  ``source`` is a path or an iterable of lines.
    """
    stop = frozenset(w.lower() for w in stopwords)
    black = frozenset(w.lower() for w in blackwords)
    stems = StemIndex(vocab)
    report = IngestReport()
    pairs: dict[tuple[int, int], float] = {}

    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = _open_maybe_gzip(source)
    else:
        fh = iter(source)
    try:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 3:
                head, _rel, tail = fields
                raw_w = 1.0
            elif len(fields) == 4:
                head, _rel, tail = fields[:3]
                try:
                    raw_w = float(fields[3])
                except ValueError:
                    report.malformed += 1
                    continue
            else:
                report.malformed += 1
                continue
            if raw_w < 0:
                report.malformed += 1
                continue
            report.lines_read += 1

            heads = _phrase_words(head, stop, black)
            tails = _phrase_words(tail, stop, black)
            if not heads or not tails:
                report.relations += 1
                report.note_discard("filtered")
                continue
            weight = 1.0 if mode == "hard" else rescale_weight(raw_w)
            for hw in heads:
                for tw in tails:
                    report.relations += 1
                    hid = align_word_to_token(hw, vocab)
                    tid = align_word_to_token(tw, vocab)
                    if hid is None or tid is None:
                        report.note_discard("out-of-vocabulary")
                        continue
                    if hid == tid or stems.same_class(hid, tid):
                        report.note_discard("self-loop")
                        continue
                    key = (min(hid, tid), max(hid, tid))
                    pairs[key] = max(weight, pairs.get(key, 0.0))
                    report.kept += 1
    finally:
        if hasattr(fh, "close"):
            fh.close()

    # Morphological extension: mirror each edge over both stem classes.
    extended: dict[tuple[int, int], float] = {}
    for (a, b), w in pairs.items():
        for am in stems.class_members(a):
            for bm in stems.class_members(b):
                if am == bm:
                    continue
                key = (min(am, bm), max(am, bm))
                extended[key] = max(w, extended.get(key, 0.0))

    facts = FactBase(vocab, stems, extended, mode)
    report.edges = facts.num_edges
    report.stem_classes = stems.n_classes
    return facts, report
