import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from logicdec.kb import (WORD_BOUNDARY, FactBase, SnapshotError, StemIndex,
                         Vocabulary, _check_adjacency, align_word_to_token,
                         ingest_triples, load_factbase, rescale_weight)
from logicdec.stemming import word_stem

from conftest import DATA, read_words


# frozen golden vectors for the shipped stemmer
STEM_GOLDENS = {
    "run": "run", "runs": "run", "running": "run", "ran": "run",
    "walk": "walk", "walks": "walk", "walking": "walk", "walked": "walk",
    "dog": "dog", "dogs": "dog", "garden": "garden", "gardens": "garden",
    "flowers": "flower", "caresses": "caress", "ponies": "poni",
    "hopping": "hop", "relational": "relat", "sized": "size",
    "conflated": "conflat", "agreed": "agre", "happy": "happi",
    "went": "go", "children": "child", "feet": "foot",
    "<s>": "<s>", "don't": "don't",
    # each takes a branch no word above takes: a stem too short for CVC,
    # "ss", "eed" on a stem of measure 0, "ion" after neither s nor t, and
    # a final double "l"
    "oping": "op", "grass": "grass", "feed": "feed", "opinion": "opinion",
    "controll": "control",
}


def _check_adjacency_oracle(n: int, mode: str, indptr: np.ndarray, rows: np.ndarray,
                            vals: np.ndarray) -> None:
    """The int64 ``_check_adjacency`` that ``kb`` replaced, verbatim: the
    refusals, their order and their messages that the check must keep."""
    rows = rows.astype(np.int64)
    if ((rows < 0) | (rows >= n)).any():
        raise ValueError(f"edge rows outside vocabulary of size {n}")
    if indptr[0] != 0 or indptr[-1] != len(rows) or (np.diff(indptr) < 0).any():
        raise ValueError("column index does not partition the edge arrays")
    cols = np.repeat(np.arange(n), np.diff(indptr))
    if (rows == cols).any():
        raise ValueError(f"self-loop on token {rows[rows == cols][0]}")
    key = cols * n + rows
    if (np.diff(key) <= 0).any():
        raise ValueError("duplicate or unsorted rows within a column")
    if not ((vals > 0.0) & (vals <= 1.0)).all():
        raise ValueError("edge weight outside (0, 1]")
    if mode == "hard" and (vals != 1.0).any():
        raise ValueError("hard mode stores weight 1.0 only")
    # the upper triangle's mirror keys, sorted, are the lower triangle's keys
    upper = rows < cols
    mirror = rows[upper] * n + cols[upper]
    order = np.argsort(mirror)
    lower = ~upper
    if not (np.array_equal(key[lower], mirror[order])
            and np.array_equal(vals[lower], vals[upper][order])):
        raise ValueError("adjacency is not symmetric")


# each mutation of a valid CSC triple, and the refusal it must meet first
ADJACENCY_MUTATIONS = {
    None: None,
    "row-past-vocabulary": "edge rows outside", "negative-row": "edge rows outside",
    "self-loop": "self-loop on token", "duplicate-row": "duplicate or unsorted",
    "unsorted-row": "duplicate or unsorted", "zero-weight": "edge weight outside",
    "weight-above-one": "edge weight outside", "nan-weight": "edge weight outside",
    "hard-weight": "hard mode", "one-sided-edge": "not symmetric",
    "swapped-weights": "not symmetric", "moved-row": "not symmetric",
    "moved-column": "not symmetric", "decreasing-index": "does not partition",
    "index-short-of-nnz": "does not partition", "index-past-nnz": "does not partition",
}


@st.composite
def mutated_csc_triples(draw):
    """``(mutation, n, mode, indptr, rows, vals)``: a symmetric CSC triple
    over at most 7 tokens, with int32 or int64 rows, and one mutation."""
    mutation = draw(st.sampled_from(list(ADJACENCY_MUTATIONS)))
    # two edges on three tokens share a column and can differ in weight
    two_edges = mutation in ("duplicate-row", "unsorted-row", "swapped-weights",
                             "moved-row", "moved-column")
    n = draw(st.integers(3 if two_edges else 2 if mutation == "decreasing-index" else 1, 7))
    mode = {"hard-weight": "hard", "swapped-weights": "soft"}.get(
        mutation, draw(st.sampled_from(["soft", "hard"])))
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                .filter(lambda p: p[0] < p[1]), min_size=2 * two_edges)))
    weight = st.just(1.0) if mode == "hard" else st.floats(0.0, 1.0, exclude_min=True)
    entries = sorted((c, r, w) for (a, b), w in zip(pairs, [draw(weight) for _ in pairs])
                     for r, c in ((a, b), (b, a)))
    if mutation in ("moved-row", "moved-column"):  # a lower entry leaves its mirror
        c, r, w = draw(st.sampled_from([e for e in entries if e[1] > e[0]]))
        taken = {(e[0], e[1]) for e in entries}
        cells = ([(c, q) for q in range(c + 1, n)] if mutation == "moved-row"
                 else [(q, r) for q in range(r)])
        cells = [cell for cell in cells if cell not in taken]
        assume(cells)
        entries.remove((c, r, w))
        entries = sorted(entries + [(*draw(st.sampled_from(cells)), w)])
    cols = np.array([c for c, _, _ in entries], dtype=np.int64)
    rows = np.array([r for _, r, _ in entries], dtype=draw(st.sampled_from([np.int32,
                                                                             np.int64])))
    vals = np.array([w for _, _, w in entries], dtype=np.float64)
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int64)
    if mutation in (None, "moved-row", "moved-column", "decreasing-index",
                    "index-short-of-nnz", "index-past-nnz"):
        k = None
    elif mutation in ("duplicate-row", "unsorted-row"):  # k - 1 and k share a column
        shared = np.flatnonzero(cols[1:] == cols[:-1]) + 1
        assume(len(shared))
        k = int(draw(st.sampled_from(shared.tolist())))
    else:
        assume(len(rows))
        k = draw(st.integers(0, len(rows) - 1))
    if mutation == "row-past-vocabulary":
        rows[k] = n + draw(st.integers(0, 2))
    elif mutation == "negative-row":
        rows[k] = -draw(st.integers(1, 3))
    elif mutation == "self-loop":
        rows[k] = cols[k]
    elif mutation == "duplicate-row":
        rows[k] = rows[k - 1]
    elif mutation == "unsorted-row":
        rows[[k - 1, k]] = rows[[k, k - 1]]
    elif mutation in ("zero-weight", "nan-weight"):
        vals[k] = 0.0 if mutation == "zero-weight" else np.nan
    elif mutation == "weight-above-one":
        vals[k] = 1.0 + draw(st.floats(1e-9, 1.0))
    elif mutation == "hard-weight":
        vals[k] = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    elif mutation == "one-sided-edge":
        rows, vals = np.delete(rows, k), np.delete(vals, k)
        indptr[cols[k] + 1:] -= 1
    elif mutation == "swapped-weights":
        others = np.flatnonzero(vals != vals[k])
        assume(len(others))
        j = int(draw(st.sampled_from(others.tolist())))
        vals[[k, j]] = vals[[j, k]]
    elif mutation == "decreasing-index":
        c = draw(st.integers(1, n - 1))
        indptr[c] = indptr[c - 1] - 1
    elif mutation in ("index-short-of-nnz", "index-past-nnz"):
        indptr[-1] += -1 if mutation == "index-short-of-nnz" else 1
    return mutation, n, mode, indptr, rows, vals


def _refusal(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_stemmer_goldens():
    for word, expected in STEM_GOLDENS.items():
        assert word_stem(word) == expected, word


class TestVocabulary:
    def test_bijection(self, toy_vocab):
        for tid in range(len(toy_vocab)):
            assert toy_vocab.id_of(toy_vocab.token(tid)) == tid

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(["a", "b", "a"])


class TestAlignment:
    def test_exact_single_token(self, toy_vocab):
        assert toy_vocab.token(align_word_to_token("garden", toy_vocab)) == "garden"

    def test_boundary_marker_preferred(self):
        vocab = Vocabulary(["dog", WORD_BOUNDARY + "dog"])
        assert align_word_to_token("dog", vocab) == 1

    def test_multi_piece_word_contributes_first_piece(self):
        vocab = Vocabulary([WORD_BOUNDARY + "sun", "sh", "ine"])
        # "sunshine" splits into three pieces; the first one represents it
        assert align_word_to_token("sunshine", vocab) == 0

    def test_out_of_vocabulary(self, toy_vocab):
        assert align_word_to_token("zephyr", toy_vocab) is None

    def test_empty_word_rejected(self, toy_vocab):
        with pytest.raises(ValueError):
            align_word_to_token("", toy_vocab)


class TestStemIndex:
    def test_partition(self, toy_vocab):
        index = StemIndex(toy_vocab)
        classes = {tuple(index.class_members(t).tolist()) for t in range(len(toy_vocab))}
        total = sum(len(m) for m in classes)
        assert total == len(toy_vocab)

    def test_stem_table_length_must_match_the_vocabulary(self):
        with pytest.raises(ValueError, match="stem table length"):
            StemIndex(Vocabulary(["a", "b"]), class_of=np.array([0]))

    def test_equivalence_relation(self, toy_vocab):
        index = StemIndex(toy_vocab)
        ids = [toy_vocab.id_of(w) for w in ("run", "runs", "running", "ran", "dog")]
        r, rs, rn, ra, d = ids
        assert index.same_class(r, r)
        assert index.same_class(r, rs) and index.same_class(rs, r)
        assert index.same_class(r, rn) and index.same_class(rn, ra) and index.same_class(r, ra)
        assert not index.same_class(r, d)


class TestEqualVector:
    """Stem equality over the vocabulary, ``FactBase.equal_truth``."""

    def test_stem_mates_match(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("run"), v.id_of("ran"), v.id_of("dog")]
        out = toy_facts.equal_truth(v.id_of("running")).at(domain)
        assert out.tolist() == [1.0, 1.0, 0.0]

    def test_identity_one_hot(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("garden"), v.id_of("piano"), v.id_of("river")]
        out = toy_facts.equal_truth(v.id_of("garden")).at(domain)
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_disjoint_classes_all_zero(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("garden"), v.id_of("piano")]
        assert toy_facts.equal_truth(v.id_of("dog")).at(domain).tolist() == [0.0, 0.0]

    def test_members_are_the_stem_class_as_read_only_views(self, toy_facts):
        v = toy_facts.vocab
        truth = toy_facts.equal_truth(v.id_of("running"))
        assert truth.background == 0.0 and (truth.values == 1.0).all()
        assert [v.token(t) for t in truth.ids] == sorted(
            ("run", "runs", "running", "ran"), key=v.id_of)
        with pytest.raises(ValueError, match="read-only"):
            truth.ids[0] = 0
        with pytest.raises(ValueError, match="outside"):
            toy_facts.equal_truth(len(v))


class TestEdgeVector:
    """Adjacency columns over the vocabulary, ``FactBase.edge_truth``."""

    def test_single_soft_edge(self):
        vocab = Vocabulary(["a", "b", "p"])
        facts = FactBase.from_edges(vocab, [(0, 2, 0.7)], mode="soft")
        assert facts.edge_truth(2).dense().tolist() == [0.7, 0.0, 0.0]

    def test_hard_mode_two_neighbours(self):
        vocab = Vocabulary(["a", "b", "c", "p"])
        facts = FactBase.from_edges(vocab, [(0, 3, 1.0), (2, 3, 1.0)], mode="hard")
        assert facts.edge_truth(3).dense().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_symmetry_over_all_stored_edges(self, toy_facts):
        for a, b, w in toy_facts.edges():
            assert toy_facts.edge_truth(b).dense()[a] == pytest.approx(w)
            assert toy_facts.edge_truth(a).dense()[b] == pytest.approx(w)

    def test_columns_are_read_only_views(self, toy_facts):
        truth = toy_facts.edge_truth(toy_facts.vocab.id_of("garden"))
        assert len(truth.ids) and truth.background == 0.0
        for array in (truth.ids, truth.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestRescale:
    def test_monotone_and_bounded(self):
        raws = [0.0, 0.5, 1.0, 2.0, 6.0, 100.0]
        weights = [rescale_weight(r) for r in raws]
        assert all(0.05 <= w <= 0.95 for w in weights)
        assert weights == sorted(weights)

    def test_negative_rejected(self):
        for raw in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not finite and nonnegative"):
                rescale_weight(raw)


class TestIngestion:
    def test_symmetric_storage(self, toy_vocab):
        facts, _ = ingest_triples(
            ["rain\trelatedto\tumbrella\t2.0"],
            Vocabulary(["rain", "umbrella"]), mode="soft")
        assert facts.edge_weight(0, 1) > 0
        assert facts.edge_weight(1, 0) == facts.edge_weight(0, 1)

    def test_oov_discarded_and_counted(self):
        vocab = Vocabulary(["rain", "umbrella"])
        facts, report = ingest_triples(
            ["rain\trelatedto\tumbrella\t2.0", "rain\trelatedto\tzzz\t2.0"],
            vocab, mode="soft")
        assert report.kept == 1
        assert report.discarded == 1
        assert facts.num_edges == 1

    def test_morphological_extension(self, toy_facts):
        v = toy_facts.vocab
        # (walk, park) seeds edges for every stem-mate of "walk"
        for form in ("walk", "walks", "walking", "walked"):
            assert toy_facts.edge_weight(v.id_of(form), v.id_of("park")) > 0

    def test_stem_closure_invariant(self, toy_facts):
        for a, b, w in toy_facts.edges():
            for mate in toy_facts.stems.class_members(a):
                if mate != b:
                    assert toy_facts.edge_weight(mate, b) > 0

    def test_multi_word_decomposition(self, toy_facts):
        v = toy_facts.vocab
        # "city park" decomposes; "city" side is out of vocabulary
        assert toy_facts.edge_weight(v.id_of("park"), v.id_of("trees")) > 0

    def test_stop_and_black_words_filtered(self, toy_vocab):
        facts, report = ingest_triples(
            ["the\trelatedto\tdog\t1.0", "crud\trelatedto\tdog\t1.0"],
            toy_vocab, mode="soft",
            stopwords=["the"], blackwords=["crud"])
        assert facts.num_edges == 0
        assert report.discard_reasons.get("filtered") == 2

    def test_idempotence(self, toy_vocab, tmp_path):
        lines = open(DATA / "kg.tsv", encoding="utf-8").read().splitlines()
        stop = read_words(DATA / "stopwords.txt")
        black = read_words(DATA / "blackwords.txt")
        f1, _ = ingest_triples(lines, toy_vocab, "soft", stop, black)
        f2, _ = ingest_triples(lines + lines, toy_vocab, "soft", stop, black)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        f1.save(p1)
        f2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_soft_and_hard_share_sparsity(self, toy_vocab):
        lines = open(DATA / "kg.tsv", encoding="utf-8").read().splitlines()
        stop = read_words(DATA / "stopwords.txt")
        soft, _ = ingest_triples(lines, toy_vocab, "soft", stop)
        hard, _ = ingest_triples(lines, toy_vocab, "hard", stop)
        soft_edges = [(a, b) for a, b, _ in soft.edges()]
        hard_edges = [(a, b) for a, b, _ in hard.edges()]
        assert soft_edges == hard_edges
        assert all(w == 1.0 for _, _, w in hard.edges())
        assert all(0.0 < w < 1.0 for _, _, w in soft.edges())

    def test_blank_and_comment_lines_are_skipped_uncounted(self):
        facts, report = ingest_triples(
            ["", "   ", "# rain\trelatedto\tumbrella", "  # a note",
             "rain\trelatedto\tumbrella\t2.0"],
            Vocabulary(["rain", "umbrella"]), mode="soft")
        assert (report.lines_read, report.malformed, report.kept) == (1, 0, 1)
        assert facts.num_edges == 1

    def test_malformed_lines_counted(self, toy_vocab):
        facts, report = ingest_triples(
            ["only two\tfields", "a\tb\tc\tnot_a_number", "dog\trel\tcat\t-3",
             "garden\tRelatedTo\tpark\tinf", "piano\tRelatedTo\tmusic\tnan"],
            toy_vocab, mode="soft")
        assert report.malformed == 5
        assert report.lines_read == 0


class TestSnapshot:
    def test_round_trip(self, toy_facts, tmp_path):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        loaded = load_factbase(path)
        assert loaded.mode == toy_facts.mode
        assert loaded.vocab.tokens == toy_facts.vocab.tokens
        assert list(loaded.edges()) == list(toy_facts.edges())
        assert (loaded.stems.class_of == toy_facts.stems.class_of).all()

    def test_round_trip_is_byte_stable(self, toy_facts, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        toy_facts.save(p1)
        load_factbase(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ValueError, match="not a fact-base snapshot"):
            load_factbase(path)

    def test_every_truncation_names_its_section(self, toy_facts, tmp_path):
        full = tmp_path / "facts.bin"
        toy_facts.save(full)
        blob = full.read_bytes()
        cut = tmp_path / "cut.bin"
        sections = set()
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            with pytest.raises(SnapshotError, match="truncated") as err:
                load_factbase(cut)
            assert str(cut) in str(err.value)
            assert err.value.section in str(err.value)
            sections.add(err.value.section)
        assert sections == {"magic", "header", "vocabulary size", "vocabulary",
                            "stem classes", "stem table", "edge count",
                            "edge index", "edge rows", "edge weights"}

    def test_trailing_bytes_rejected(self, toy_facts, tmp_path):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(SnapshotError, match="1 trailing bytes") as err:
            load_factbase(path)
        assert err.value.section == "end"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_snapshot_fails_or_round_trips(self, toy_facts, tmp_path, data):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        blob = path.read_bytes()
        kind = data.draw(st.sampled_from(["overwrite", "truncate", "append"]))
        if kind == "overwrite":
            at = data.draw(st.integers(0, len(blob) - 1))
            patch = data.draw(st.binary(min_size=1, max_size=8))
            blob = blob[:at] + patch + blob[at + len(patch):]
        elif kind == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            blob = blob + data.draw(st.binary(min_size=1, max_size=16))
        path.write_bytes(blob)
        try:
            facts = load_factbase(path)
        except SnapshotError:
            return
        again = tmp_path / "again.bin"
        facts.save(again)
        assert again.read_bytes() == blob

    @pytest.mark.parametrize("corruption, problem", [
        ("row-past-vocabulary", "outside"), ("negative-row", "outside"),
        ("nan-weight", "outside"), ("one-sided-weight", "not symmetric"),
        ("duplicate-row", "duplicate"), ("swapped-weights", "not symmetric"),
    ])
    def test_corrupt_edge_arrays_rejected(self, toy_facts, tmp_path, corruption, problem):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        blob = bytearray(path.read_bytes())
        n, nnz = len(toy_facts.vocab), 2 * toy_facts.num_edges
        rows_at = len(blob) - 12 * nnz
        indptr = np.frombuffer(blob, dtype="<i8", count=n + 1, offset=rows_at - 8 * (n + 1))
        rows = np.frombuffer(blob, dtype="<i4", count=nnz, offset=rows_at).copy()
        vals = np.frombuffer(blob, dtype="<f8", count=nnz, offset=rows_at + 4 * nnz).copy()
        # k and k + 1 lie in the first column that holds two rows
        k = int(indptr[np.flatnonzero(np.diff(indptr) >= 2)[0]])
        if corruption == "row-past-vocabulary":
            rows[k] = n
        elif corruption == "negative-row":
            rows[k] = -1
        elif corruption == "nan-weight":
            vals[:] = np.nan
        elif corruption == "one-sided-weight":
            vals[k] /= 2
        elif corruption == "swapped-weights":
            # two entries trade weights on one side only: the counts and the
            # multiset of weights still match, the matrix is not symmetric
            j = int(np.flatnonzero(vals != vals[k])[0])
            vals[[k, j]] = vals[[j, k]]
        else:
            rows[k + 1] = rows[k]
        blob[rows_at:] = rows.astype("<i4").tobytes() + vals.astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match=problem) as err:
            load_factbase(path)
        assert err.value.section == "edge arrays"

    @pytest.mark.parametrize("offset, value", [(6, 2), (7, 1)], ids=["mode", "reserved"])
    def test_bad_header_flags_rejected(self, toy_facts, tmp_path, offset, value):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        blob = bytearray(path.read_bytes())
        blob[offset] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="flags") as err:
            load_factbase(path)
        assert err.value.section == "header"

    def test_bad_vocabulary_rejected(self, tmp_path):
        def snapshot(tokens, n=None):
            vocab = Vocabulary(["a", "b"])
            facts = FactBase.from_edges(vocab, [(0, 1, 0.5)])
            path = tmp_path / "facts.bin"
            facts.save(path)
            blob = path.read_bytes()
            head = blob[:8] + struct.pack("<IQ", n or 2, len(tokens))
            path.write_bytes(head + tokens + blob[20 + 3:])
            return path

        for tokens, n, problem in [(b"a\n\xff", None, "utf-8"),
                                   (b"a\na", None, "duplicate"),
                                   (b"a\nb", 3, "header says 3")]:
            with pytest.raises(SnapshotError, match=problem) as err:
                load_factbase(snapshot(tokens, n))
            assert err.value.section == "vocabulary"

    def test_negative_stem_class_rejected(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        path = tmp_path / "facts.bin"
        FactBase.from_edges(vocab, [(0, 1, 0.5)]).save(path)
        blob = bytearray(path.read_bytes())
        stem_at = 20 + 3 + 4
        blob[stem_at:stem_at + 4] = struct.pack("<i", -1)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="negative or miscounted") as err:
            load_factbase(path)
        assert err.value.section == "stem table"

    @pytest.mark.parametrize("tokens, bad", [(["a\nb", "c"], "a\nb"), ([""], "")],
                             ids=["newline", "only-empty"])
    def test_vocabulary_the_block_cannot_hold_is_not_saved(self, tmp_path, tokens, bad):
        # loaded back, these read as 3 tokens and as 0 tokens
        path = tmp_path / "facts.bin"
        with pytest.raises(ValueError, match=re.escape(f"token {bad!r} cannot be stored")):
            FactBase.from_edges(Vocabulary(tokens), []).save(path)
        assert not path.exists()

    def test_an_empty_token_among_others_round_trips(self, tmp_path):
        path = tmp_path / "facts.bin"
        FactBase.from_edges(Vocabulary(["", "a"]), [(0, 1, 0.5)]).save(path)
        assert load_factbase(path).vocab.tokens == ("", "a")

    def test_loaded_arrays_are_read_only_views_of_the_file(self, toy_facts, tmp_path):
        path = tmp_path / "facts.bin"
        toy_facts.save(path)
        facts = load_factbase(path)
        arrays = (facts._csc_indptr, facts._csc_rows, facts._csc_vals, facts.stems.class_of)
        buffers = {id(a.base.obj) for a in arrays}
        assert len(buffers) == 1
        assert len(facts._csc_rows.base.obj) == path.stat().st_size
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("token_length", range(1, 9))
    def test_loaded_arrays_are_aligned_whatever_the_vocabulary_length(self, tmp_path,
                                                                      token_length):
        # the sections' offsets in the file move with the vocabulary block's
        # length; numpy takes slow paths over misaligned arrays
        path = tmp_path / "facts.bin"
        FactBase.from_edges(Vocabulary(["a" * token_length, "b"]), [(0, 1, 0.5)]).save(path)
        facts = load_factbase(path)
        assert all(a.flags.aligned for a in (facts._csc_indptr, facts._csc_rows,
                                             facts._csc_vals, facts.stems.class_of))

    def test_seed_7_world_load_peaks_under_24_mb(self, world_7):
        """Loading the seed-7 world's 5.8 MB snapshot (V = 50,000, 400,000
        stored entries) peaks at 19.7 MB under tracemalloc: sections are
        slices of one read buffer and the adjacency check's temporaries keep
        the rows' int32 width.  With a copy of each section and int64 copies
        of the rows and columns, it peaked at 36.7 MB."""
        tracemalloc.start()
        try:
            facts = load_factbase(world_7 / "factbase.snap")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert facts.num_edges == 200_000
        assert peak < 24_000_000

    def test_gzip_transparent_ingestion(self, toy_vocab, tmp_path):
        import gzip
        path = tmp_path / "kg.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("garden\trelatedto\tflowers\t2.0\n")
        facts, report = ingest_triples(path, toy_vocab, mode="soft")
        assert report.kept == 1
        assert facts.num_edges == 1


class TestFactBaseValidation:
    @settings(max_examples=600, deadline=None)
    @given(case=mutated_csc_triples())
    def test_check_refuses_exactly_as_the_int64_oracle(self, case):
        mutation, n, mode, indptr, rows, vals = case
        expected = _refusal(_check_adjacency_oracle, n, mode, indptr, rows.copy(), vals)
        assert _refusal(_check_adjacency, n, mode, indptr, rows, vals) == expected
        problem = ADJACENCY_MUTATIONS[mutation]
        assert expected is None if problem is None else problem in expected

    def test_mode_must_be_soft_or_hard(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="mode must be 'soft' or 'hard'"):
            FactBase(vocab, StemIndex(vocab), {(0, 1): 0.5}, "fuzzy")

    def test_self_loop_rejected(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="self-loop"):
            FactBase(vocab, StemIndex(vocab), {(0, 0): 0.5}, "soft")

    def test_hard_mode_requires_unit_weights(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="hard mode"):
            FactBase(vocab, StemIndex(vocab), {(0, 1): 0.5}, "hard")

    def test_weight_range_enforced(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="outside"):
            FactBase(vocab, StemIndex(vocab), {(0, 1): 1.5}, "soft")

    @pytest.mark.parametrize("row, col", [(1, 0), (0, 2)], ids=["lower", "upper"])
    def test_one_sided_edge_rejected(self, row, col):
        indptr = np.zeros(4, dtype=np.int64)
        indptr[col + 1:] = 1
        with pytest.raises(ValueError, match="not symmetric"):
            _check_adjacency(3, "soft", indptr, np.array([row], dtype=np.int32),
                             np.array([0.5]))

    def test_both_orientations_rejected(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="duplicate"):
            FactBase(vocab, StemIndex(vocab), {(0, 1): 0.5, (1, 0): 0.5}, "soft")

    def test_edge_weight_matches_columns(self, toy_facts):
        n = len(toy_facts.vocab)
        dense = np.array([[toy_facts.edge_weight(a, b) for a in range(n)] for b in range(n)])
        assert (dense == np.stack([toy_facts.edge_truth(b).dense() for b in range(n)])).all()

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (75, 0), (0, 75)])
    def test_edge_weight_rejects_ids_outside_vocabulary(self, toy_facts, a, b):
        assert len(toy_facts.vocab) == 75
        with pytest.raises(ValueError, match="outside"):
            toy_facts.edge_weight(a, b)
