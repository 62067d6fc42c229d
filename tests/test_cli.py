import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from logicdec.cli import build_parser, main
from logicdec.decoder import PRESETS, decode
from logicdec.rules import parse_program
from logicdec.tasks import dialogue_rule_template, load_instances

from conftest import DATA

ROOT = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("fb") / "toy.fb"
    code = main(["ingest-kg", "--triples", str(DATA / "kg.tsv"),
                 "--vocab", str(DATA / "vocab.txt"),
                 "--mode", "soft", "--out", str(out),
                 "--stopwords", str(DATA / "stopwords.txt"),
                 "--blackwords", str(DATA / "blackwords.txt")])
    assert code == 0
    return out


class TestIngest:
    def test_report_counts_on_audit_fixture(self, tmp_path, capsys):
        out = tmp_path / "small.fb"
        code, stdout, _ = run(["ingest-kg", "--triples", str(DATA / "kg_small.tsv"),
                               "--vocab", str(DATA / "vocab.txt"),
                               "--mode", "soft", "--out", str(out)], capsys)
        assert code == 0
        assert "triples read:      10" in stdout
        assert "relations kept:    8" in stdout
        assert "relations dropped: 2" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.fb", tmp_path / "b.fb"
        for out in (a, b):
            code, _, _ = run(["ingest-kg", "--triples", str(DATA / "kg_small.tsv"),
                              "--vocab", str(DATA / "vocab.txt"),
                              "--mode", "soft", "--out", str(out)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_soft_and_hard_modes_differ_only_in_weights(self, tmp_path, capsys):
        from logicdec.kb import load_factbase
        paths = {}
        for mode in ("soft", "hard"):
            out = tmp_path / f"{mode}.fb"
            code, _, _ = run(["ingest-kg", "--triples", str(DATA / "kg_small.tsv"),
                              "--vocab", str(DATA / "vocab.txt"),
                              "--mode", mode, "--out", str(out)], capsys)
            assert code == 0
            paths[mode] = load_factbase(out)
        soft_edges = [(a, b) for a, b, _ in paths["soft"].edges()]
        hard_edges = [(a, b) for a, b, _ in paths["hard"].edges()]
        assert soft_edges == hard_edges
        assert any(w != 1.0 for _, _, w in paths["soft"].edges())
        assert all(w == 1.0 for _, _, w in paths["hard"].edges())

    def test_missing_triples_path(self, capsys):
        code, _, err = run(["ingest-kg", "--triples", "/nonexistent.tsv",
                            "--vocab", str(DATA / "vocab.txt"),
                            "--out", "/tmp/never.fb"], capsys)
        assert code == 1
        assert "--triples" in err


class TestDecode:
    def test_lexical_run_produces_results(self, snapshot, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code, stdout, _ = run([
            "decode", "--factbase", str(snapshot),
            "--instances", str(DATA / "lexical20.jsonl"),
            "--corpus", str(DATA / "corpus_lexical.txt"),
            "--max-length", "16",
            "--length-norm", "1.0",
            "--out", str(out)], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 20
        assert all({"id", "text", "score", "coverage", "skipped", "finished"} <= set(r)
                   for r in lines)

    @pytest.mark.parametrize("flag, value", [("--template", "hard-gate"), ("--task", "lexical"),
                                             ("--preset", "commongen"), ("--ngram-order", "3"),
                                             ("--discount", "0.75")])
    def test_removed_flags_are_refused(self, snapshot, tmp_path, capsys, flag, value):
        out = tmp_path / "results.jsonl"
        for command in ("decode", "baseline-beam"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--factbase", str(snapshot),
                      "--instances", str(DATA / "lexical20.jsonl"),
                      "--corpus", str(DATA / "corpus_lexical.txt"),
                      flag, value, "--out", str(out)])
            assert exc.value.code == 1
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
            assert not out.exists()
            assert flag not in TestHelpDocSync().subcommand_help(command)

    def test_each_instance_kind_picks_its_template(self, snapshot, tmp_path, capsys):
        lexical = (DATA / "lexical20.jsonl").read_text("utf-8").splitlines()[:2]
        dialogue = (DATA / "dialogue10.jsonl").read_text("utf-8").splitlines()[:2]
        instances = tmp_path / "mixed.jsonl"
        instances.write_text("\n".join([lexical[0], dialogue[0], lexical[1], dialogue[1]]) + "\n")
        out = tmp_path / "results.jsonl"
        code, _, _ = run(["decode", "--factbase", str(snapshot), "--instances", str(instances),
                          "--corpus", str(DATA / "corpus_lexical.txt"),
                          "--max-length", "8", "--out", str(out)], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == [json.loads(line)["id"] for line in
                                              (lexical[0], dialogue[0], lexical[1], dialogue[1])]
        assert all("error" not in r and r["text"] for r in records)

    def test_each_instance_kind_picks_its_preset(self, snapshot, tmp_path, capsys, toy_facts,
                                                 dialogue_scorer, sentinel_ids):
        lexical = (DATA / "lexical20.jsonl").read_text("utf-8").splitlines()[:2]
        dialogue = (DATA / "dialogue10.jsonl").read_text("utf-8").splitlines()[:2]
        results = {}
        for name, lines in (("mixed", [lexical[0], dialogue[0], lexical[1], dialogue[1]]),
                            ("lexical", lexical), ("dialogue", dialogue)):
            instances, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.out.jsonl"
            instances.write_text("\n".join(lines) + "\n")
            code, _, err = run(["decode", "--factbase", str(snapshot),
                                "--instances", str(instances),
                                "--corpus", str(DATA / "corpus_dialogue.txt"),
                                "--max-length", "10", "--out", str(out)], capsys)
            assert code == 0, err
            results[name] = out.read_text().splitlines()
        assert results["mixed"] == [results["lexical"][0], results["dialogue"][0],
                                    results["lexical"][1], results["dialogue"][1]]
        # a dialogue line is the library's decode under the personachat preset
        bos, eos = sentinel_ids
        config = replace(PRESETS["personachat"], max_length=10, bos_id=bos, eos_id=eos)
        for line, instance in zip(results["dialogue"], load_instances(DATA / "dialogue10.jsonl")):
            binding = dialogue_rule_template(instance.persona, instance.history, toy_facts)
            best = decode(dialogue_scorer, parse_program(binding.source), binding.rule,
                          binding.ctx, config).best
            text = " ".join(toy_facts.vocab.surface(t) for t in best.tokens if t not in (bos, eos))
            assert (json.loads(line)["text"], json.loads(line)["score"]) == (text, best.logp)

    def test_a_malformed_line_fails_only_its_instance(self, snapshot, tmp_path, capsys):
        instances = tmp_path / "three.jsonl"
        instances.write_text(json.dumps({"id": "first", "kind": "lexical",
                                         "concepts": ["garden"]}) + "\n"
                             + '{"kind": "lexical"}\nnot json\n'
                             + json.dumps({"id": "last", "kind": "dialogue",
                                           "persona": ["i have pets"]}) + "\n")
        for command in ("decode", "baseline-beam"):
            out = tmp_path / f"{command}.jsonl"
            code, _, err = run([command, "--factbase", str(snapshot),
                                "--instances", str(instances),
                                "--corpus", str(DATA / "corpus_lexical.txt"),
                                "--max-length", "6", "--out", str(out)], capsys)
            assert code == 0, err
            first, no_concepts, not_json, last = [json.loads(line)
                                                  for line in out.read_text().splitlines()]
            assert first["id"] == "first" and first["text"]
            assert no_concepts == {"id": "1", "error": "ValueError: line 2: lexical instance "
                                                      "needs at least one concept"}
            assert not_json["id"] == "2"
            assert not_json["error"].startswith("ValueError: line 3: Expecting value")
            assert last["id"] == "last" and last["text"]

    @pytest.mark.parametrize("source, message", [
        ("R(x) :- Equal(x, ", "expected 'var', found 'end of input' (line 1, column 17)"),
        ("R(x) :- Foo(x)\n", "rule 'R' references undefined rule 'Foo'"),
        ("Q(x) :- Equal(x, x)\n", "unknown rule 'R'"),
        ("R(x, y) :- Edge(x, y)\n", "rule 'R' takes 2 parameters, not one"),
    ], ids=["syntax", "link", "no-R", "two-parameter-R"])
    def test_bad_rule_file_is_a_usage_error(self, snapshot, tmp_path, capsys, source, message):
        rules = tmp_path / "bad.rules"
        rules.write_text(source)
        out = tmp_path / "results.jsonl"
        for factbase in (snapshot, "/missing.fb"):  # read before the fact base
            code, _, err = run(["decode", "--factbase", str(factbase),
                                "--instances", str(DATA / "lexical20.jsonl"),
                                "--corpus", str(DATA / "corpus_lexical.txt"),
                                "--rules", str(rules),
                                "--out", str(out)], capsys)
            assert code == 1
            (line,) = err.strip().splitlines()  # one message, no traceback
            assert line == f"logicdec: error: --rules: {message}"
            assert not out.exists()

    def test_rule_file_runs_for_every_instance(self, snapshot, tmp_path, capsys):
        rules = tmp_path / "own.rules"
        rules.write_text((ROOT / "src/logicdec/templates/commongen_hard.rules").read_text())
        texts = {}
        for extra in ([], ["--rules", str(rules)]):
            out = tmp_path / f"results{len(extra)}.jsonl"
            code, _, _ = run(["decode", "--factbase", str(snapshot),
                              "--instances", str(DATA / "lexical20.jsonl"),
                              "--corpus", str(DATA / "corpus_lexical.txt"),
                              "--max-length", "8", *extra,
                              "--out", str(out)], capsys)
            assert code == 0
            texts[len(extra)] = out.read_text()
        assert texts[0] == texts[2] and len(texts[0].splitlines()) == 20

    def test_result_line_names_the_concepts_that_did_not_align(self, snapshot, tmp_path,
                                                              capsys):
        instances = tmp_path / "one.jsonl"
        instances.write_text(json.dumps({"kind": "lexical",
                                         "concepts": ["garden", "zzzz"]}) + "\n")
        out = tmp_path / "results.jsonl"
        code, _, _ = run(["decode", "--factbase", str(snapshot), "--instances", str(instances),
                          "--corpus", str(DATA / "corpus_lexical.txt"),
                          "--out", str(out)], capsys)
        assert code == 0
        rec = json.loads(out.read_text())
        # coverage counts the aligned concepts; eval counts them all
        assert rec["coverage"] == 1.0 and rec["skipped"] == ["zzzz"]
        code, stdout, _ = run(["eval", "--results", str(out),
                               "--instances", str(instances)], capsys)
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["coverage_percent"] == 50.0

    def test_an_interrupted_run_exits_2_quietly(self, snapshot, tmp_path, capsys,
                                                monkeypatch):
        from logicdec import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "decode", interrupted)
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--corpus", str(DATA / "corpus_lexical.txt"),
                            "--out", str(tmp_path / "results.jsonl")], capsys)
        assert (code, err) == (2, "")

    def test_saved_weights_decode_as_the_seeded_model(self, snapshot, tmp_path, capsys,
                                                      toy_vocab):
        from logicdec.transformer import TinyTransformer, TransformerConfig, save_weights
        weights = tmp_path / "seeded.bin"
        save_weights(TinyTransformer(TransformerConfig(vocab_size=len(toy_vocab), seed=0)),
                     weights)
        instances = tmp_path / "three.jsonl"
        instances.write_text("".join((DATA / "lexical20.jsonl").read_text().splitlines(True)[:3]))
        texts = {}
        for extra in ([], ["--weights", str(weights)]):
            out = tmp_path / f"results{len(extra)}.jsonl"
            code, _, err = run(["decode", "--factbase", str(snapshot),
                                "--instances", str(instances), "--scorer", "transformer",
                                "--max-length", "6", *extra, "--out", str(out)], capsys)
            assert code == 0, err
            texts[len(extra)] = out.read_bytes()
        assert texts[0] == texts[2] and len(texts[0].splitlines()) == 3

    def test_weights_for_another_vocabulary_are_a_usage_error(self, snapshot, tmp_path,
                                                              capsys, toy_vocab):
        from logicdec.transformer import TinyTransformer, TransformerConfig, save_weights
        weights = tmp_path / "other.bin"
        save_weights(TinyTransformer(TransformerConfig(vocab_size=len(toy_vocab) + 1)), weights)
        out = tmp_path / "results.jsonl"
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--scorer", "transformer", "--weights", str(weights),
                            "--out", str(out)], capsys)
        assert code == 1
        assert err.strip() == ("logicdec: error: --weights: vocabulary size does not match "
                               "the fact base")
        assert not out.exists()

    def test_truncated_weights_are_a_runtime_failure(self, snapshot, tmp_path, capsys,
                                                     toy_vocab):
        from logicdec.transformer import TinyTransformer, TransformerConfig, save_weights
        weights = tmp_path / "cut.bin"
        save_weights(TinyTransformer(TransformerConfig(vocab_size=len(toy_vocab))), weights)
        weights.write_bytes(weights.read_bytes()[:-8])
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--scorer", "transformer", "--weights", str(weights),
                            "--out", str(tmp_path / "results.jsonl")], capsys)
        assert code == 2
        assert f"logicdec: runtime failure: WeightsError: {weights}: tensor 'wout': " \
            "truncated" in err

    def test_blank_corpus_lines_are_skipped(self, snapshot, tmp_path, capsys):
        sentences = (DATA / "corpus_lexical.txt").read_text().splitlines()
        spaced = tmp_path / "spaced.txt"
        spaced.write_text("\n" + "\n  \n".join(sentences) + "\n\n")
        results = {}
        for corpus in (DATA / "corpus_lexical.txt", spaced):
            out = tmp_path / f"{corpus.stem}.jsonl"
            code, _, _ = run(["decode", "--factbase", str(snapshot),
                              "--instances", str(DATA / "lexical20.jsonl"),
                              "--corpus", str(corpus), "--max-length", "6",
                              "--out", str(out)], capsys)
            assert code == 0
            results[corpus.stem] = out.read_bytes()
        assert results["spaced"] == results["corpus_lexical"]

    @pytest.mark.parametrize("text, message", [
        ("the man saw the garden\n\nthe zyzzyva ran\n",
         "--corpus: line 3: token 'zyzzyva' not in vocabulary"),
        ("\n   \n", "--corpus: file contains no sentences"),
    ], ids=["unknown-token", "no-sentences"])
    def test_bad_corpus_is_a_usage_error(self, snapshot, tmp_path, capsys, text, message):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        out = tmp_path / "results.jsonl"
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--corpus", str(corpus), "--out", str(out)], capsys)
        assert code == 1
        assert err.strip() == f"logicdec: error: {message}"
        assert not out.exists()

    def test_ngram_scorer_needs_a_corpus(self, snapshot, tmp_path, capsys):
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--out", str(tmp_path / "results.jsonl")], capsys)
        assert code == 1
        assert err.strip() == "logicdec: error: --corpus is required with --scorer ngram"

    def test_fact_base_without_a_start_token_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "vocab.txt").write_text("the\ndog\npark\n")
        (tmp_path / "kg.tsv").write_text("dog\tRelatedTo\tpark\n")
        (tmp_path / "corpus.txt").write_text("the dog\n")
        snap = tmp_path / "g.fb"
        code, _, _ = run(["ingest-kg", "--triples", str(tmp_path / "kg.tsv"),
                          "--vocab", str(tmp_path / "vocab.txt"), "--out", str(snap)], capsys)
        assert code == 0
        code, _, err = run(["decode", "--factbase", str(snap),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--corpus", str(tmp_path / "corpus.txt"),
                            "--out", str(tmp_path / "results.jsonl")], capsys)
        assert code == 1
        assert err.strip() == "logicdec: error: --factbase: vocabulary lacks the '<s>' start token"

    def test_degenerate_flags_match_baseline_beam(self, snapshot, tmp_path, capsys):
        # zero intensities and no constraint set (the dialogue task binds no
        # concepts): constrained decoding degenerates to plain beam search
        # (the length norm given, as the two commands' defaults differ)
        dec, base = tmp_path / "dec.jsonl", tmp_path / "base.jsonl"
        shared = ["--factbase", str(snapshot),
                  "--instances", str(DATA / "dialogue10.jsonl"),
                  "--corpus", str(DATA / "corpus_dialogue.txt"),
                  "--beam", "5", "--max-length", "10", "--length-norm", "0.7"]
        code, _, _ = run(["decode", *shared, "--alpha1", "0",
                          "--alpha2", "0", "--alpha3", "0", "--out", str(dec)], capsys)
        assert code == 0
        code, _, _ = run(["baseline-beam", *shared, "--out", str(base)], capsys)
        assert code == 0
        dec_texts = [json.loads(l)["text"] for l in dec.read_text().splitlines()]
        base_texts = [json.loads(l)["text"] for l in base.read_text().splitlines()]
        assert dec_texts == base_texts
        assert all(t == "i love my job" for t in base_texts)

    def test_trace_emits_top5(self, snapshot, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code, _, _ = run([
            "decode", "--factbase", str(snapshot),
            "--instances", str(DATA / "lexical20.jsonl"),
            "--corpus", str(DATA / "corpus_lexical.txt"),
            "--max-length", "8", "--trace", "--out", str(out)], capsys)
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["traced"]
        assert len(first["trace"][0]["top_before"]) == 5
        assert len(first["trace"][0]["top_after"]) == 5

    def test_missing_factbase_names_flag(self, capsys):
        code, _, err = run(["decode", "--factbase", "/missing.fb",
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--corpus", str(DATA / "corpus_lexical.txt"),
                            "--out", "/tmp/x.jsonl"], capsys)
        assert code == 1
        assert "--factbase" in err

    @pytest.mark.parametrize("flag, value, words", [
        ("--beam", "0", "beam size"),
        ("--length-norm", "nan", "length-normalisation power"),
    ])
    def test_invalid_decode_setting_is_a_usage_error(self, snapshot, tmp_path, capsys,
                                                      flag, value, words):
        out = tmp_path / "results.jsonl"
        code, _, err = run(["decode", "--factbase", str(snapshot),
                            "--instances", str(DATA / "lexical20.jsonl"),
                            "--corpus", str(DATA / "corpus_lexical.txt"),
                            flag, value, "--out", str(out)], capsys)
        assert code == 1
        assert "runtime failure" not in err and "Traceback" not in err
        assert f"invalid decode setting: {words}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, wanted", [("--seed", "-1", "nonnegative")])
    def test_bad_scorer_setting_is_a_usage_error(self, snapshot, tmp_path, capsys,
                                                 flag, value, wanted):
        out = tmp_path / "results.jsonl"
        for factbase in (snapshot, "/missing.fb"):  # checked before the fact base
            code, _, err = run(["decode", "--factbase", str(factbase),
                                "--instances", str(DATA / "lexical20.jsonl"),
                                "--corpus", str(DATA / "corpus_lexical.txt"),
                                "--scorer", "transformer", flag, value, "--out", str(out)],
                               capsys)
            assert code == 1
            (line,) = err.strip().splitlines()  # one message, no traceback
            assert line.startswith(f"logicdec: error: {flag} must be {wanted}, got ")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "baseline-beam"])
    def test_too_many_concepts_fail_only_their_instance(self, snapshot, tmp_path, capsys,
                                                        command):
        words = (DATA / "vocab.txt").read_text("utf-8").split()[2:67]  # 65 distinct tokens
        instances = tmp_path / "three.jsonl"
        instances.write_text("".join(json.dumps(rec) + "\n" for rec in (
            {"id": "first", "kind": "lexical", "concepts": ["garden", "piano"]},
            {"id": "many", "kind": "lexical", "concepts": words},
            {"id": "last", "kind": "lexical", "concepts": ["river", "market"]})))
        out = tmp_path / "results.jsonl"
        code, _, _ = run([command, "--factbase", str(snapshot), "--instances", str(instances),
                          "--corpus", str(DATA / "corpus_lexical.txt"),
                          "--max-length", "8", "--out", str(out)],
                         capsys)
        assert code == 0
        first, many, last = [json.loads(line) for line in out.read_text().splitlines()]
        assert many == {"id": "many", "error": "ValueError: uint64 coverage masks hold at "
                                               "most 64 concepts, got 65"}
        assert first["id"] == "first" and first["text"] and "error" not in first
        assert last["id"] == "last" and last["text"] and "error" not in last
        if command == "decode":  # the unconstrained text need not cover them
            assert first["coverage"] > 0 and last["coverage"] > 0

    @pytest.mark.parametrize("command", ["decode", "baseline-beam"])
    def test_max_length_past_the_transformer_max_len_is_a_usage_error(
            self, snapshot, tmp_path, capsys, toy_vocab, command):
        from logicdec.transformer import TinyTransformer, TransformerConfig, save_weights
        weights = tmp_path / "short.bin"
        save_weights(TinyTransformer(TransformerConfig(vocab_size=len(toy_vocab), max_len=8)),
                     weights)
        instances = tmp_path / "two.jsonl"
        instances.write_text("".join((DATA / "lexical20.jsonl").read_text().splitlines(True)[:2]))
        argv = [command, "--factbase", str(snapshot), "--instances", str(instances),
                "--scorer", "transformer", "--weights", str(weights), "--beam", "3"]
        out = tmp_path / "fits.jsonl"
        code, _, err = run([*argv, "--max-length", "8", "--out", str(out)], capsys)
        assert code == 0, err
        assert all("text" in json.loads(line) for line in out.read_text().splitlines())
        out = tmp_path / "past.jsonl"
        code, _, err = run([*argv, "--max-length", "9", "--out", str(out)], capsys)
        assert code == 1
        assert err.strip() == "logicdec: error: --max-length 9 exceeds the transformer's " \
            "max_len 8"
        assert not out.exists()

    def test_transformer_scorer_runs(self, snapshot, tmp_path, capsys):
        out = tmp_path / "tf.jsonl"
        instances = tmp_path / "one.jsonl"
        instances.write_text(json.dumps(
            {"kind": "lexical", "concepts": ["garden"]}) + "\n")
        code, _, _ = run([
            "decode", "--factbase", str(snapshot), "--instances", str(instances),
            "--scorer", "transformer", "--seed", "3", "--beam", "3",
            "--max-length", "6", "--alpha3", "24", "--out", str(out)], capsys)
        assert code == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert "text" in rec


class TestBaselineBeam:
    def test_coverage_aligns_concepts_like_decode(self, tmp_path, capsys):
        # a GPT-2 style vocabulary: word-initial tokens carry the boundary marker
        (tmp_path / "vocab.txt").write_text("\n".join(
            ["<s>", "</s>", "Ġthe", "Ġdog", "Ġran", "Ġpark"]) + "\n")
        (tmp_path / "kg.tsv").write_text("dog\tRelatedTo\tpark\n")
        (tmp_path / "corpus.txt").write_text("Ġthe Ġdog Ġran\n")
        (tmp_path / "inst.jsonl").write_text(
            json.dumps({"kind": "lexical", "concepts": ["dog", "park"]}) + "\n"
            + json.dumps({"kind": "lexical", "concepts": ["qqq"]}) + "\n")
        snap, out = tmp_path / "g.fb", tmp_path / "base.jsonl"
        code, _, _ = run(["ingest-kg", "--triples", str(tmp_path / "kg.tsv"),
                          "--vocab", str(tmp_path / "vocab.txt"), "--out", str(snap)], capsys)
        assert code == 0
        code, _, _ = run(["baseline-beam", "--factbase", str(snap),
                          "--instances", str(tmp_path / "inst.jsonl"),
                          "--corpus", str(tmp_path / "corpus.txt"),
                          "--beam", "3", "--max-length", "5", "--out", str(out)], capsys)
        assert code == 0
        first, second = [json.loads(l) for l in out.read_text().splitlines()]
        assert first["text"] == "the dog ran"
        assert first["coverage"] == 0.5
        assert second["error"] == ("ValueError: none of the concepts aligned "
                                   "to vocabulary tokens")


    def test_one_search_serves_every_instance(self, snapshot, tmp_path, capsys, monkeypatch):
        from logicdec import cli
        searches = []

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        search = cli.plain_beam_search
        monkeypatch.setattr(cli, "plain_beam_search", counted)
        out = tmp_path / "base.jsonl"
        code, _, _ = run(["baseline-beam", "--factbase", str(snapshot),
                          "--instances", str(DATA / "lexical20.jsonl"),
                          "--corpus", str(DATA / "corpus_lexical.txt"),
                          "--max-length", "8", "--out", str(out)], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(searches) == 1 and len(records) == 20
        assert len({r["text"] for r in records}) == 1 and all("error" not in r for r in records)


class TestEval:
    def test_metrics_table(self, snapshot, tmp_path, capsys):
        # the default decode: each lexical instance under its own rules
        results = tmp_path / "results.jsonl"
        code, _, _ = run([
            "decode", "--factbase", str(snapshot),
            "--instances", str(DATA / "lexical20.jsonl"),
            "--corpus", str(DATA / "corpus_lexical.txt"),
            "--max-length", "16", "--length-norm", "1.0",
            "--out", str(results)], capsys)
        assert code == 0
        texts = [json.loads(line)["text"] for line in results.read_text().splitlines()]
        assert len(set(texts)) == len(texts) == 20
        code, stdout, _ = run(["eval", "--results", str(results),
                               "--instances", str(DATA / "lexical20.jsonl")], capsys)
        assert code == 0
        assert "coverage(%)" in stdout
        payload = json.loads(stdout.strip().splitlines()[-1])
        assert payload["coverage_percent"] == 100.0

    def test_malformed_instance_file_is_a_usage_error(self, tmp_path, capsys):
        instances, results = tmp_path / "inst.jsonl", tmp_path / "results.jsonl"
        instances.write_text('{"kind": "lexical", "concepts": ["garden"]}\nnot json\n')
        results.write_text('{"id": "0", "text": "garden", "score": -1.0}\n'
                           '{"id": "1", "error": "ValueError: line 2"}\n')
        code, _, err = run(["eval", "--results", str(results),
                            "--instances", str(instances)], capsys)
        assert code == 1
        (line,) = err.strip().splitlines()
        assert line.startswith("logicdec: error: --instances: line 2: Expecting value")


    @staticmethod
    def baseline_results(snapshot, tmp_path, capsys) -> list[str]:
        out = tmp_path / "base.jsonl"
        code, _, _ = run(["baseline-beam", "--factbase", str(snapshot),
                          "--instances", str(DATA / "lexical20.jsonl"),
                          "--corpus", str(DATA / "corpus_lexical.txt"),
                          "--max-length", "4", "--out", str(out)], capsys)
        assert code == 0
        return out.read_text().splitlines()

    @pytest.mark.parametrize("bad, message", [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('["lex01"]', "expected an object with an 'error', or a string 'text' and a number "
                      "'score'"),
        ('{"id": "lex01", "score": -1.0}', "expected an object with an 'error', or a string "
                                           "'text' and a number 'score'"),
        ('{"id": "lex01", "text": "a", "score": "high"}', "expected an object with an "
                                                          "'error', or a string 'text' and "
                                                          "a number 'score'"),
    ], ids=["not-json", "not-an-object", "no-text", "score-not-a-number"])
    def test_malformed_results_line_is_a_usage_error(self, tmp_path, capsys, bad, message):
        instances, results = tmp_path / "inst.jsonl", tmp_path / "results.jsonl"
        instances.write_text("".join((DATA / "lexical20.jsonl").read_text().splitlines(True)[:2]))
        results.write_text('{"id": "lex00", "text": "garden", "score": -1.0}\n\n' + bad + "\n")
        code, _, err = run(["eval", "--results", str(results),
                            "--instances", str(instances)], capsys)
        assert code == 1
        (line,) = err.strip().splitlines()
        assert line == f"logicdec: error: --results: line 3: {message}"

    @pytest.mark.parametrize("value, shown", [("NaN", "nan"), ("Infinity", "inf")])
    def test_a_score_that_is_not_finite_is_a_usage_error(self, tmp_path, capsys, value, shown):
        # json reads both, and a mean over them would print invalid JSON
        instances, results = tmp_path / "inst.jsonl", tmp_path / "results.jsonl"
        instances.write_text((DATA / "lexical20.jsonl").read_text().splitlines(True)[0])
        results.write_text('{"id": "lex00", "text": "a", "score": %s}\n' % value)
        code, out, err = run(["eval", "--results", str(results),
                              "--instances", str(instances)], capsys)
        assert (code, out) == (1, "")
        assert err.strip() == f"logicdec: error: --results: line 1: score {shown} is not " \
            "a finite number"

    def test_a_score_past_the_float_range_is_a_usage_error(self, tmp_path, capsys):
        # json reads a 401-digit integer exactly; it has no float value
        instances, results = tmp_path / "inst.jsonl", tmp_path / "results.jsonl"
        instances.write_text((DATA / "lexical20.jsonl").read_text().splitlines(True)[0])
        results.write_text('{"id": "lex00", "text": "a", "score": 1%s}\n' % ("0" * 400))
        code, out, err = run(["eval", "--results", str(results),
                              "--instances", str(instances)], capsys)
        assert (code, out) == (1, "")
        assert err.strip() == "logicdec: error: --results: line 1: int too large to " \
            "convert to float"

    def test_a_mean_score_that_overflows_is_a_usage_error(self, tmp_path, capsys):
        instances, results = tmp_path / "inst.jsonl", tmp_path / "results.jsonl"
        instances.write_text("".join((DATA / "lexical20.jsonl").read_text().splitlines(True)[:2]))
        results.write_text("".join('{"id": "lex0%d", "text": "a", "score": 1e308}\n' % i
                                   for i in range(2)))
        code, out, err = run(["eval", "--results", str(results),
                              "--instances", str(instances)], capsys)
        assert (code, out) == (1, "")
        assert err.strip() == "logicdec: error: --results: the mean score overflows a float"

    @pytest.mark.parametrize("count", [19, 21])
    def test_results_of_another_count_are_a_usage_error(self, snapshot, tmp_path, capsys, count):
        lines = self.baseline_results(snapshot, tmp_path, capsys)
        results = tmp_path / "counted.jsonl"
        results.write_text("\n".join((lines + lines)[:count]) + "\n")
        code, _, err = run(["eval", "--results", str(results),
                            "--instances", str(DATA / "lexical20.jsonl")], capsys)
        assert code == 1
        assert err.strip() == f"logicdec: error: --results: {count} results vs 20 instances"

    def test_results_in_another_order_are_a_usage_error(self, snapshot, tmp_path, capsys):
        results = tmp_path / "reversed.jsonl"
        results.write_text("\n".join(self.baseline_results(snapshot, tmp_path, capsys)[::-1]))
        code, _, err = run(["eval", "--results", str(results),
                            "--instances", str(DATA / "lexical20.jsonl")], capsys)
        assert code == 1
        assert err.strip() == ("logicdec: error: --results: line 1: id 'lex19' is not "
                               "'lex00', its instance's")

    def test_results_of_other_instances_are_a_usage_error(self, snapshot, tmp_path, capsys):
        results = tmp_path / "first10.jsonl"
        results.write_text("\n".join(self.baseline_results(snapshot, tmp_path, capsys)[:10]))
        code, _, err = run(["eval", "--results", str(results),
                            "--instances", str(DATA / "dialogue10.jsonl")], capsys)
        assert code == 1
        assert err.strip() == ("logicdec: error: --results: line 1: id 'lex00' is not "
                               "'dlg00', its instance's")


class TestServeValidation:
    def test_bad_bind_rejected(self, snapshot, tmp_path, capsys):
        rules = tmp_path / "r.rules"
        rules.write_text("R(x) :- Equal(x, x)\n")
        code, _, err = run(["serve", "--factbase", str(snapshot),
                            "--rules", str(rules), "--bind", "nonsense"], capsys)
        assert code == 1
        assert "--bind" in err

    @pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:²"])
    def test_port_out_of_range_is_a_usage_error(self, tmp_path, capsys, bind):
        # checked before the fact base and rules are read
        code, _, err = run(["serve", "--factbase", "/missing.fb",
                            "--rules", "/missing.rules", "--bind", bind], capsys)
        assert code == 1
        (line,) = err.strip().splitlines()
        assert line.startswith("logicdec: error: --bind: expected host:port with a port "
                               "in 0..65535")


    @pytest.mark.parametrize("source, message", [
        ("R(x) :- Equal(x, ", "expected 'var', found 'end of input' (line 1, column 17)"),
        ("R(x) :- R(x)\n", "cyclic rule references among: R"),
    ], ids=["syntax", "link"])
    def test_bad_rule_file_is_a_usage_error(self, snapshot, tmp_path, capsys, monkeypatch,
                                           source, message):
        from logicdec import service

        def serve_forever(*args):
            raise AssertionError("a bad rule file was served")

        monkeypatch.setattr(service, "serve_forever", serve_forever)
        rules = tmp_path / "bad.rules"
        rules.write_text(source)
        code, _, err = run(["serve", "--factbase", str(snapshot), "--rules", str(rules),
                            "--bind", "127.0.0.1:0"], capsys)
        assert code == 1
        (line,) = err.strip().splitlines()
        assert line == f"logicdec: error: --rules: {message}"


class TestHelpDocSync:
    def test_readme_quick_start_runs(self, tmp_path, capsys, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"Quick start.*?```sh\n(.*?)```", readme, re.S)
        assert block, "README lacks the quick start"
        commands = [shlex.split(cmd.replace("/tmp/", f"{tmp_path}/"))
                    for cmd in block.group(1).replace("\\\n", " ").splitlines() if cmd.strip()]
        assert all(argv[0] == "logicdec" for argv in commands) and commands[-1][1] == "eval"
        monkeypatch.chdir(ROOT)
        for argv in commands:
            code, stdout, err = run(argv[1:], capsys)
            assert code == 0, err
        assert json.loads(stdout.strip().splitlines()[-1])["coverage_percent"] == 100.0

    @staticmethod
    def subcommands() -> dict:
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._actions[-1])) and hasattr(a, "choices"))
        return sub.choices

    def subcommand_help(self, name) -> str:
        return self.subcommands()[name].format_help()

    def test_every_documented_flag_exists(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = re.search(r"## Command line.*?(?=\n## |\Z)", readme, re.S)
        assert section, "README lacks a command line section"
        blocks = re.findall(r"### `logicdec (\S+)`(.*?)(?=\n### |\Z)",
                            section.group(0), re.S)
        assert blocks, "README lists no subcommands"
        for name, body in blocks:
            help_text = self.subcommand_help(name)
            for flag in set(re.findall(r"`(--[a-z0-9-]+)`", body)):
                assert flag in help_text, f"{flag} documented but absent from {name} --help"

    def test_every_flag_is_documented(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = re.search(r"## Command line.*?(?=\n## |\Z)", readme, re.S)
        blocks = dict(re.findall(r"### `logicdec (\S+)`(.*?)(?=\n### |\Z)",
                                 section.group(0), re.S))
        assert sorted(blocks) == sorted(self.subcommands())
        for name, body in blocks.items():
            documented = set(re.findall(r"`(--[a-z0-9-]+)`", body))
            for flag in set(re.findall(r"--[a-z0-9-]+", self.subcommand_help(name))) - {"--help"}:
                assert flag in documented, f"{flag} of {name} --help is not in the README"

    def test_exit_code_for_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
