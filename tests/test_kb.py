import numpy as np
import pytest

from logicdec.kb import (WORD_BOUNDARY, FactBase, SnapshotError, StemIndex,
                         Vocabulary, align_word_to_token, edge_vector,
                         equal_vector, ingest_triples, load_factbase,
                         rescale_weight)
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
}


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

    def test_exact_policy_rejects_splits(self):
        vocab = Vocabulary([WORD_BOUNDARY + "sun", "sh", "ine"])
        assert align_word_to_token("sunshine", vocab, policy="exact") is None

    def test_out_of_vocabulary(self, toy_vocab):
        assert align_word_to_token("zephyr", toy_vocab) is None

    def test_empty_word_rejected(self, toy_vocab):
        with pytest.raises(ValueError):
            align_word_to_token("", toy_vocab)


class TestStemIndex:
    def test_partition(self, toy_vocab):
        index = StemIndex(toy_vocab)
        total = sum(len(m) for m in index.members.values())
        assert total == len(toy_vocab)

    def test_equivalence_relation(self, toy_vocab):
        index = StemIndex(toy_vocab)
        ids = [toy_vocab.id_of(w) for w in ("run", "runs", "running", "ran", "dog")]
        r, rs, rn, ra, d = ids
        assert index.same_class(r, r)
        assert index.same_class(r, rs) and index.same_class(rs, r)
        assert index.same_class(r, rn) and index.same_class(rn, ra) and index.same_class(r, ra)
        assert not index.same_class(r, d)


class TestEqualVector:
    def test_stem_mates_match(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("run"), v.id_of("ran"), v.id_of("dog")]
        out = equal_vector(domain, v.id_of("running"), toy_facts)
        assert out.tolist() == [1.0, 1.0, 0.0]

    def test_identity_one_hot(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("garden"), v.id_of("piano"), v.id_of("river")]
        out = equal_vector(domain, v.id_of("garden"), toy_facts)
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_disjoint_classes_all_zero(self, toy_facts):
        v = toy_facts.vocab
        domain = [v.id_of("garden"), v.id_of("piano")]
        assert equal_vector(domain, v.id_of("dog"), toy_facts).tolist() == [0.0, 0.0]


class TestEdgeVector:
    def test_single_soft_edge(self):
        vocab = Vocabulary(["a", "b", "p"])
        facts = FactBase.from_edges(vocab, [(0, 2, 0.7)], mode="soft")
        out = edge_vector(np.ones(3), 2, facts)
        assert out.tolist() == [0.7, 0.0, 0.0]

    def test_zero_bag_annihilates(self):
        vocab = Vocabulary(["a", "b", "p"])
        facts = FactBase.from_edges(vocab, [(0, 2, 0.7)], mode="soft")
        assert edge_vector(np.zeros(3), 2, facts).tolist() == [0.0, 0.0, 0.0]

    def test_hard_mode_two_neighbours(self):
        vocab = Vocabulary(["a", "b", "c", "p"])
        facts = FactBase.from_edges(vocab, [(0, 3, 1.0), (2, 3, 1.0)], mode="hard")
        out = edge_vector(np.ones(4), 3, facts)
        assert out.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_symmetry_over_all_stored_edges(self, toy_facts):
        ones = np.ones(len(toy_facts.vocab))
        for a, b, w in toy_facts.edges():
            assert edge_vector(ones, b, toy_facts)[a] == pytest.approx(w)
            assert edge_vector(ones, a, toy_facts)[b] == pytest.approx(w)


class TestRescale:
    def test_monotone_and_bounded(self):
        raws = [0.0, 0.5, 1.0, 2.0, 6.0, 100.0]
        weights = [rescale_weight(r) for r in raws]
        assert all(0.05 <= w <= 0.95 for w in weights)
        assert weights == sorted(weights)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rescale_weight(-1.0)


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

    def test_malformed_lines_counted(self, toy_vocab):
        facts, report = ingest_triples(
            ["only two\tfields", "a\tb\tc\tnot_a_number", "dog\trel\tcat\t-3"],
            toy_vocab, mode="soft")
        assert report.malformed == 3
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

    def test_gzip_transparent_ingestion(self, toy_vocab, tmp_path):
        import gzip
        path = tmp_path / "kg.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("garden\trelatedto\tflowers\t2.0\n")
        facts, report = ingest_triples(path, toy_vocab, mode="soft")
        assert report.kept == 1
        assert facts.num_edges == 1


class TestFactBaseValidation:
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
