"""Fact storage: vocabulary, stem-equality classes, and the weighted concept
adjacency, all aligned to token ids.

Word-level knowledge-graph triples are ingested into a symmetric sparse
matrix over the scorer vocabulary.  Edges are stored per token id; the soft
variant keeps rescaled weights in (0, 1), the hard variant stores 1.0.  Every
stored edge is mirrored across the stem classes of both endpoints so that
morphological variants match the same facts.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .lm import _check_token
from .stemming import word_stem

__all__ = [
    "WORD_BOUNDARY", "Vocabulary", "StemIndex", "FactBase", "IngestReport",
    "align_word_to_token", "ingest_triples",
    "rescale_weight", "load_factbase", "FormatError", "SnapshotError", "SectionReader",
]

# Leading marker on word-initial tokens, the usual byte-BPE convention.
WORD_BOUNDARY = "Ġ"

_SNAPSHOT_MAGIC = b"LDFB"
_SNAPSHOT_VERSION = 1


class Vocabulary:
    """Dense token id <-> surface string bijection."""

    def __init__(self, tokens: Sequence[str]):
        toks = tuple(tokens)
        self._index = dict(zip(toks, range(len(toks))))
        if len(self._index) != len(toks):
            raise ValueError("vocabulary contains duplicate tokens")
        self._tokens = toks

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
        _check_token((token_id,), len(self._tokens))
        return self._tokens[token_id]

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def surface(self, token_id: int) -> str:
        """Surface form with any word-boundary marker stripped."""
        return self.token(token_id).removeprefix(WORD_BOUNDARY)


def _greedy_pieces(text: str, vocab: Vocabulary) -> Optional[list[int]]:
    """Longest-prefix-match split of ``text`` into vocabulary pieces."""
    pieces: list[int] = []
    pos = 0
    while pos < len(text):
        for end in range(len(text), pos, -1):
            tid = vocab.id_of(text[pos:end])
            if tid is not None:
                pieces.append(tid)
                pos = end
                break
        else:
            return None
    return pieces


def align_word_to_token(word: str, vocab: Vocabulary) -> Optional[int]:
    """Map a surface word onto a single token id.

    The word-initial form (boundary marker prepended) is preferred over the
    bare form.  A word that only exists as a multi-token split contributes
    its first piece as the semantic representative.  Returns ``None`` when
    nothing in the vocabulary matches.
    """
    if not word:
        raise ValueError("cannot align an empty word")
    for candidate in (WORD_BOUNDARY + word, word):
        tid = vocab.id_of(candidate)
        if tid is not None:
            return tid
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

    @functools.cached_property
    def _member_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, members)``: the token ids of class ``c``, ascending, are
        ``members[indptr[c]:indptr[c + 1]]``.  Built on first use (ingestion
        and proving read it; a snapshot load does not), and read-only."""
        members = np.argsort(self.class_of, kind="stable").astype(np.int32)
        indptr = np.zeros(self.n_classes + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.class_of, minlength=self.n_classes), out=indptr[1:])
        members.flags.writeable = indptr.flags.writeable = False
        return indptr, members

    def same_class(self, a: int, b: int) -> bool:
        return int(self.class_of[a]) == int(self.class_of[b])

    def class_members(self, token_id: int) -> np.ndarray:
        """The token ids of ``token_id``'s class, ascending, as a read-only view."""
        indptr, members = self._member_index
        cid = self.class_of[token_id]
        return members[indptr[cid]:indptr[cid + 1]]


def rescale_weight(raw: float) -> float:
    """Map a finite nonnegative raw relation weight into (0, 1).

    Monotone saturating map, clamped away from the endpoints so soft and
    hard fact bases stay distinguishable.
    """
    if not 0 <= raw < math.inf:  # NaN fails both comparisons
        raise ValueError(f"relation weight {raw!r} is not finite and nonnegative")
    w = raw / (raw + 1.0)
    return min(0.95, max(0.05, w))


class FactBase:
    """Immutable fact store: vocabulary + stem classes + weighted adjacency.

    The adjacency is kept once, as a symmetric matrix in compressed sparse
    column (CSC) layout with increasing rows in each column.  Scalar lookups
    binary-search a column; the prover's atoms gather whole columns.
    """

    def __init__(self, vocab: Vocabulary, stems: StemIndex,
                 pairs: Mapping[tuple[int, int], float], mode: str):
        ab = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(pairs.values(), dtype=np.float64, count=len(pairs))
        rows, cols = np.concatenate([ab, ab[:, ::-1]]).T  # both orientations
        order = np.lexsort((rows, cols))
        indptr = np.searchsorted(cols[order], np.arange(len(vocab) + 1))
        self._adopt(vocab, stems, mode, indptr, rows[order], np.concatenate([w, w])[order])

    def _adopt(self, vocab: Vocabulary, stems: StemIndex, mode: str,
               indptr: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
        if mode not in ("soft", "hard"):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        _check_adjacency(len(vocab), mode, indptr, rows, vals)
        self.vocab = vocab
        self.stems = stems
        self.mode = mode
        self._csc_indptr = indptr
        self._csc_rows = rows.astype(np.int32, copy=False)
        self._csc_vals = vals
        for array in (self._csc_indptr, self._csc_rows, self._csc_vals):
            array.flags.writeable = False  # checked once, above; a FactBase is immutable

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
        _check_token((a, b), len(self.vocab))
        lo, hi = self._csc_indptr[b], self._csc_indptr[b + 1]
        k = lo + int(np.searchsorted(self._csc_rows[lo:hi], a))
        return float(self._csc_vals[k]) if k < hi and self._csc_rows[k] == a else 0.0

    def same_stem(self, a: int, b: int) -> bool:
        _check_token((a, b), len(self.vocab))
        return self.stems.same_class(a, b)

    @property
    def num_edges(self) -> int:
        return len(self._csc_rows) // 2

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Each edge once as ``(a, b, w)`` with ``a < b``, sorted by ``(a, b)``."""
        cols = np.repeat(np.arange(len(self.vocab)), np.diff(self._csc_indptr))
        lower = self._csc_rows > cols
        yield from zip(cols[lower].tolist(), self._csc_rows[lower].tolist(),
                       self._csc_vals[lower].tolist())

    # -- snapshot ------------------------------------------------------------

    def save(self, path) -> None:
        """Write a snapshot; refuse a vocabulary the newline-joined block cannot hold."""
        text = "\n".join(self.vocab.tokens)
        if (text.split("\n") if text else []) != list(self.vocab.tokens):
            bad = next((t for t in self.vocab.tokens if "\n" in t), "")
            raise ValueError(f"token {bad!r} cannot be stored in a snapshot's vocabulary")
        vocab_blob = text.encode("utf-8")
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


def _check_adjacency(n: int, mode: str, indptr: np.ndarray, rows: np.ndarray,
                     vals: np.ndarray) -> None:
    """Raise ``ValueError`` unless the CSC triple is a symmetric matrix over [0, n)
    with no diagonal, rows increasing in each column and weights in (0, 1]."""
    if ((rows < 0) | (rows >= n)).any():
        raise ValueError(f"edge rows outside vocabulary of size {n}")
    if indptr[0] != 0 or indptr[-1] != len(rows) or (np.diff(indptr) < 0).any():
        raise ValueError("column index does not partition the edge arrays")
    cols = np.repeat(np.arange(n, dtype=rows.dtype), np.diff(indptr))
    if (rows == cols).any():
        raise ValueError(f"self-loop on token {rows[rows == cols][0]}")
    # a row may fall or repeat only where a column starts
    if (np.diff(rows) <= 0)[np.diff(cols) == 0].any():
        raise ValueError("duplicate or unsorted rows within a column")
    if not ((vals > 0.0) & (vals <= 1.0)).all():
        raise ValueError("edge weight outside (0, 1]")
    if mode == "hard" and (vals != 1.0).any():
        raise ValueError("hard mode stores weight 1.0 only")
    # the upper triangle mirrored and sorted by (row, column) is the lower one
    upper = rows < cols
    order = np.argsort(rows[upper].astype(np.int64) * n + cols[upper])
    if not all(np.array_equal(a[upper][order], b[~upper])  # gathered first: less at once
               for a, b in ((cols, rows), (rows, cols), (vals, vals))):
        raise ValueError("adjacency is not symmetric")


class FormatError(ValueError):
    """A binary file that is truncated, oversized or inconsistent at ``section``."""

    def __init__(self, path, section: str, problem: str):
        super().__init__(f"{path}: {section}: {problem}")
        self.path, self.section = path, section


class SnapshotError(FormatError):
    """A fact-base snapshot that is truncated, oversized or inconsistent."""


class SectionReader:
    """One read of an untrusted binary file into a buffer whose end is 8-byte
    aligned, handed out as read-only sections; a section past the end and
    bytes left over raise ``error(path, section, problem)``."""

    def __init__(self, path, error: type[FormatError]):
        length = os.path.getsize(path)
        buf = np.empty(length // 8 + 1, dtype=np.uint64).view(np.uint8)[-length % 8:][:length]
        with open(path, "rb") as fh:
            self.blob = memoryview(buf[:fh.readinto(buf)]).toreadonly()
        self.path, self.error, self.pos = path, error, 0

    def take(self, section: str, size: int) -> memoryview:
        if self.pos + size > len(self.blob):
            raise self.error(self.path, section, f"truncated: needs {size} bytes at "
                             f"offset {self.pos}, {len(self.blob) - self.pos} left")
        self.pos += size
        return self.blob[self.pos - size:self.pos]

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise self.error(self.path, "end", f"{len(self.blob) - self.pos} trailing bytes")


def load_factbase(path) -> FactBase:
    """Load a snapshot that saves back to the same bytes, as read-only views of
    one ``SectionReader`` read, or raise ``SnapshotError`` naming the section."""
    reader = SectionReader(path, SnapshotError)
    take = reader.take
    if take("magic", 4) != _SNAPSHOT_MAGIC:
        raise SnapshotError(path, "magic", "not a fact-base snapshot")
    version, soft, reserved = struct.unpack("<HBB", take("header", 4))
    if version != _SNAPSHOT_VERSION or soft > 1 or reserved != 0:
        raise SnapshotError(path, "header", f"bad version {version} or flags {soft}, {reserved}")
    n, vocab_len = struct.unpack("<IQ", take("vocabulary size", 12))
    vocab_blob = take("vocabulary", vocab_len)
    try:
        vocab = Vocabulary(str(vocab_blob, "utf-8").split("\n") if vocab_len else [])
    except ValueError as exc:  # bad UTF-8 or duplicate tokens
        raise SnapshotError(path, "vocabulary", str(exc)) from None
    if len(vocab) != n:
        raise SnapshotError(path, "vocabulary", f"{len(vocab)} tokens, header says {n}")
    (n_classes,) = struct.unpack("<I", take("stem classes", 4))
    stems = StemIndex(vocab, np.frombuffer(take("stem table", 4 * n), dtype="<i4"))
    if (stems.class_of < 0).any() or stems.n_classes != n_classes:
        raise SnapshotError(path, "stem table", "negative or miscounted class ids")
    (nnz,) = struct.unpack("<Q", take("edge count", 8))
    indptr = np.frombuffer(take("edge index", 8 * (n + 1)), dtype="<i8")
    rows = np.frombuffer(take("edge rows", 4 * nnz), dtype="<i4")
    vals = np.frombuffer(take("edge weights", 8 * nnz), dtype="<f8")
    reader.end()
    facts = FactBase.__new__(FactBase)
    try:
        facts._adopt(vocab, stems, "soft" if soft else "hard", indptr, rows, vals)
    except ValueError as exc:
        raise SnapshotError(path, "edge arrays", str(exc)) from None
    return facts


# ---------------------------------------------------------------------------
# Triple ingestion

@dataclass
class IngestReport:
    lines_read: int = 0
    malformed: int = 0
    kept: int = 0
    discarded: int = 0
    edges: int = 0
    stem_classes: int = 0
    discard_reasons: dict = field(default_factory=dict)

    def note_discard(self, reason: str) -> None:
        self.discarded += 1
        self.discard_reasons[reason] = self.discard_reasons.get(reason, 0) + 1


def _phrase_words(phrase: str, stopwords: frozenset[str], blackwords: frozenset[str]) -> list[str]:
    return [w for w in phrase.lower().replace("_", " ").split()
            if w not in stopwords and w not in blackwords]


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
            try:  # three or four fields, the weight a finite nonnegative number
                head, _rel, tail = fields[:3] if len(fields) in (3, 4) else ()
                soft_w = rescale_weight(float(fields[3]) if len(fields) == 4 else 1.0)
            except ValueError:
                report.malformed += 1
                continue
            report.lines_read += 1

            heads = _phrase_words(head, stop, black)
            tails = _phrase_words(tail, stop, black)
            if not heads or not tails:
                report.note_discard("filtered")
                continue
            weight = 1.0 if mode == "hard" else soft_w
            for hw in heads:
                for tw in tails:
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

    # Morphological extension: mirror each edge over its two (distinct) stem classes.
    extended: dict[tuple[int, int], float] = {}
    for (a, b), w in pairs.items():
        for am in stems.class_members(a).tolist():
            for bm in stems.class_members(b).tolist():
                key = (min(am, bm), max(am, bm))
                extended[key] = max(w, extended.get(key, 0.0))

    facts = FactBase(vocab, stems, extended, mode)
    report.edges = facts.num_edges
    report.stem_classes = stems.n_classes
    return facts, report
