"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import socket
import time
from dataclasses import replace

import numpy as np
import pytest

from logicdec.decision import decide
from logicdec.decoder import (DecodingConfig, PRESETS, coverage_of, decode,
                              plain_beam_search)
from logicdec.kb import ingest_triples
from logicdec.lm import NgramScorer, ngram_train
from logicdec.prover import (Domain, EvalContext, and_avg_vec, and_luk_vec,
                             not_vec, or_vec, prove, prove_scalar)
from logicdec.rules import parse_program
from logicdec.service import LogicServer
from logicdec.stemming import word_stem
from logicdec.tasks import (dialogue_rule_template, instance_coverage,
                            lexical_rule_template, load_instances)
from logicdec.transformer import (AttentionHookBundle, TinyTransformer,
                                  TransformerConfig)

from conftest import DATA, p_shifted_of

LEXICAL_HARD = """
R(x) :- exists c in C, ~Y(c) & Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""


def report(line: str) -> None:
    print(f"\nPASS: {line}")


def test_c01_connective_correctness():
    start = time.perf_counter()
    for p, q in itertools.product((0.0, 1.0), repeat=2):
        a, b = np.array([p]), np.array([q])
        assert or_vec([a, b])[0] == float(bool(p) or bool(q))
        assert and_luk_vec([a, b])[0] == float(bool(p) and bool(q))
    for p in (0.0, 1.0):
        assert not_vec(np.array([p]))[0] == 1.0 - p
    rng = np.random.default_rng(1001)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        rows = [rng.random(100) for _ in range(k)]
        assert abs(and_avg_vec(rows) - np.mean(rows, axis=0)).max() <= 1e-12
        for op in (or_vec, and_avg_vec, and_luk_vec):
            out = op(rows)
            assert (out >= 0.0).all() and (out <= 1.0).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 1: connectives match Boolean tables and closed forms, "
           f"10,000 random soft inputs stay in [0,1] ({elapsed:.2f}s)")


def test_c02_prover_oracle_equivalence():
    from test_prover import random_program_source, random_world
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        program = parse_program(random_program_source(rng))
        facts, ctx = random_world(rng)
        vector = prove(program, "R", Domain.vocabulary(facts), ctx).dense()
        scalar = np.array([prove_scalar(program, "R", w, ctx)
                           for w in range(len(facts.vocab))])
        worst = max(worst, float(np.abs(vector - scalar).max()))
        assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 2: 200 randomized programs, vector prover matches the "
           f"scalar oracle within 1e-9 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_c03_decision_identity_and_boost():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p = rng.random(n) + 1e-3
        p /= p.sum()
        truth = rng.random(n)
        assert np.abs(decide(p, np.zeros(n), 9.0) - p).max() <= 1e-9
        assert np.abs(decide(p, truth, 0.0) - p).max() <= 1e-9
        assert abs(decide(p, truth, float(rng.uniform(0, 30))).sum() - 1.0) <= 1e-6
    for _ in range(1000):
        n = int(rng.integers(3, 24))
        p = rng.random(n) + 0.01
        p[0] = p[1]
        p /= p.sum()
        truth = rng.random(n)
        truth[0], truth[1] = 1.0, 0.25
        out = decide(p, truth, float(rng.uniform(0.1, 30)))
        assert out[0] > out[1]
    out = decide(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 2.0)
    assert out == pytest.approx([0.7311, 0.2689], abs=1e-4)
    report("criterion 3: decision identity within 1e-9, normalization within "
           "1e-6, boost ordering on 1,000 random cases, closed form within 1e-4")


def test_c04_hook_identity():
    start = time.perf_counter()
    cfg = TransformerConfig(vocab_size=50, n_layers=2, n_heads=2, d_model=32,
                            d_ff=128, max_len=24, seed=2024)
    model = TinyTransformer(cfg)
    targets = [5, 9, 14]
    plain = model.begin_session(targets)
    hooked = model.begin_session(targets)
    worst = 0.0
    for t, token in enumerate([1, 7, 3, 12, 4, 2]):
        p_plain = model.step(plain, token, record_attention=True)
        hooks = AttentionHookBundle(alpha1=12.0, alpha2=24.0,
                                    truth_prefix=np.zeros(t + 1),
                                    truth_targets=np.zeros(len(targets)))
        p_hooked = model.step(hooked, token, hooks=hooks, record_attention=True)
        worst = max(worst, float(np.abs(p_plain - p_hooked).max()))
        for _l, _h, row in hooked.attention_rows:
            assert abs(row.sum() - 1.0) <= 1e-6
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"criterion 4: zero logic vectors leave the hooked forward pass "
           f"unchanged within 1e-6 (worst {worst:.2e}); attention rows sum to 1")


def test_c05_degenerate_decoder_equivalence():
    rng = np.random.default_rng(505)
    for run in range(50):
        vocab_size = int(rng.integers(8, 16))
        n_sentences = int(rng.integers(4, 12))
        corpus = []
        for _ in range(n_sentences):
            length = int(rng.integers(2, 7))
            body = [int(t) for t in rng.integers(2, vocab_size, size=length)]
            corpus.append([0] + body + [1])
        lm = ngram_train(corpus, order=3, vocab_size=vocab_size,
                         discount=float(rng.uniform(0.3, 0.9)))
        scorer = NgramScorer(lm)
        config = DecodingConfig(beam_size=4, alpha1=0, alpha2=0, alpha3=0,
                                prune_ratio=1e-12, max_length=8,
                                bos_id=0, eos_id=1)
        constrained = decode(scorer, None, None, None, config)
        baseline = plain_beam_search(scorer, 4, 8, bos_id=0, eos_id=1)
        assert [h.tokens for h in constrained.hypotheses] == \
            [h.tokens for h in baseline.hypotheses], f"run {run}"
    report("criterion 5: empty constraints and zero intensities reproduce "
           "plain beam search token-for-token on 50 seeded n-gram runs")


@pytest.fixture(scope="module")
def toy_world(toy_vocab, toy_facts, lexical_scorer, dialogue_scorer, sentinel_ids):
    return toy_vocab, toy_facts, lexical_scorer, dialogue_scorer, sentinel_ids


def test_c06_toy_constrained_generation(toy_world):
    start = time.perf_counter()
    vocab, facts, scorer, _, (bos, eos) = toy_world
    instances = load_instances(DATA / "lexical20.jsonl")
    config = replace(PRESETS["commongen"], max_length=16, bos_id=bos,
                     eos_id=eos, length_norm_power=1.0)
    coverages = []
    for inst in instances:
        binding = lexical_rule_template(inst.concepts, facts)
        program = parse_program(binding.source)
        result = decode(scorer, program, "R", binding.ctx, config)
        coverages.append(coverage_of(result.best, binding.ctx.sets["C"]))
    constrained_pct = 100.0 * sum(coverages) / len(coverages)

    baseline = plain_beam_search(scorer, config.beam_size, config.max_length,
                                 bos_id=bos, eos_id=eos, length_norm_power=1.0)
    text = " ".join(vocab.token(t) for t in baseline.best.tokens)
    base_pct = 100.0 * sum(instance_coverage(text, i.concepts)
                           for i in instances) / len(instances)
    elapsed = time.perf_counter() - start
    assert base_pct < 50.0
    assert constrained_pct >= 95.0
    assert elapsed < 120.0
    report(f"criterion 6: toy suite coverage {constrained_pct:.1f}% with the "
           f"commongen preset vs {base_pct:.1f}% unconstrained ({elapsed:.1f}s)")


def test_c07_dialogue_bridging(toy_world):
    vocab, facts, _, scorer, (bos, eos) = toy_world
    instances = load_instances(DATA / "dialogue10.jsonl")
    config = replace(PRESETS["personachat"], max_length=10, bos_id=bos,
                     eos_id=eos, length_norm_power=1.0)
    baseline = plain_beam_search(scorer, config.beam_size, config.max_length,
                                 bos_id=bos, eos_id=eos, length_norm_power=1.0)
    base_words = [vocab.token(t) for t in baseline.best.tokens]
    hits = base_hits = 0
    for inst in instances:
        bridge_stem = word_stem(inst.reference.split()[-1])
        binding = dialogue_rule_template(inst.persona, inst.history, facts)
        program = parse_program(binding.source)
        result = decode(scorer, program, "R", binding.ctx, config)
        hits += any(word_stem(vocab.token(t)) == bridge_stem
                    for t in result.best.tokens)
        base_hits += any(word_stem(w) == bridge_stem for w in base_words)
    assert hits >= 8
    assert base_hits <= 3
    report(f"criterion 7: bridging concept reached in {hits}/10 constrained "
           f"runs vs {base_hits}/10 unconstrained")


def test_c08_complexity_linearity(toy_world):
    _, facts, scorer, _, (bos, _) = toy_world
    v = facts.vocab
    program = parse_program(LEXICAL_HARD)

    def run_decode(n_tokens: int) -> float:
        ctx = EvalContext(facts=facts,
                          sets={"C": (v.id_of("garden"), v.id_of("piano"))})
        config = DecodingConfig(beam_size=10, alpha3=24.0, prune_ratio=1e-9,
                                max_length=n_tokens, bos_id=bos, eos_id=None,
                                group_budget=16)
        t0 = time.perf_counter()
        decode(scorer, program, "R", ctx, config)
        return time.perf_counter() - t0

    run_decode(16)  # warmup
    t16 = float(np.median([run_decode(16) for _ in range(5)]))
    t128 = float(np.median([run_decode(128) for _ in range(5)]))
    limit = 1.5 * 8.0 * t16
    assert t128 <= limit, f"t16={t16:.4f}s t128={t128:.4f}s limit={limit:.4f}s"
    report(f"criterion 8: decoding wall time scales linearly, "
           f"t(16)={t16 * 1e3:.1f}ms t(128)={t128 * 1e3:.1f}ms "
           f"(limit {limit * 1e3:.1f}ms)")


def test_c09_service_differential(toy_world):
    vocab, facts, _, _, _ = toy_world
    program = parse_program(LEXICAL_HARD)
    server = LogicServer(("127.0.0.1", 0), facts, program)
    server.start_background()
    rng = np.random.default_rng(909)
    n = len(vocab)
    try:
        sock = socket.create_connection(server.server_address, timeout=10)
        reader = sock.makefile("r", encoding="utf-8")
        for i in range(500):
            if i % 2 == 0:
                sets = {"C": [int(t) for t in rng.integers(2, n, size=rng.integers(1, 4))],
                        "Prev": [int(t) for t in rng.integers(0, n, size=rng.integers(1, 5))]}
                domain = "vocab" if rng.random() < 0.5 else \
                    [int(t) for t in rng.integers(0, n, size=rng.integers(1, 9))]
                request = {"op": "prove", "rule": "R", "domain": domain,
                           "ctx": {"sets": sets}}
                dom = Domain.vocabulary(facts) if domain == "vocab" \
                    else Domain.targets(domain)
                expected = prove(program, "R", dom,
                                 EvalContext(facts=facts,
                                             sets={k: tuple(x) for k, x in sets.items()})).dense()
                key = "truth"
            else:
                p = rng.random(n) + 1e-6   # decide takes one value per token
                p /= p.sum()
                truth = rng.random(n)
                alpha = float(rng.uniform(0, 40))
                request = {"op": "decide", "p": p.tolist(),
                           "truth": truth.tolist(), "alpha": alpha}
                expected = decide(np.array(p), truth, alpha)
                key = "p_shifted"
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reply = json.loads(reader.readline())
            if key == "truth":
                assert reply[key] == expected.tolist(), f"request {i} diverged"
            else:
                assert p_shifted_of(reply).tobytes() == expected.astype("<f8").tobytes(), \
                    f"request {i} diverged"
        reader.close()
        sock.close()
    finally:
        server.shutdown()
        server.server_close()
    report("criterion 9: 500 random prove/decide requests over the wire match "
           "in-process results bitwise")


def test_c10_ingestion_audit(toy_vocab):
    lines = open(DATA / "kg_small.tsv", encoding="utf-8").read().splitlines()
    facts, rep = ingest_triples(lines, toy_vocab, mode="soft")
    # hand-counted fixture: ten triples, two with an out-of-vocabulary side
    assert rep.lines_read == 10
    assert rep.kept == 8
    assert rep.discarded == 2
    assert rep.discard_reasons == {"out-of-vocabulary": 2}
    for a, b, w in facts.edges():
        assert facts.edge_weight(a, b) == facts.edge_weight(b, a)
        assert 0.0 < w < 1.0
        for mate in facts.stems.class_members(a):
            if mate != b:
                assert facts.edge_weight(mate, b) == w
    hard, _ = ingest_triples(lines, toy_vocab, mode="hard")
    assert all(w == 1.0 for _, _, w in hard.edges())
    again, _ = ingest_triples(lines + lines, toy_vocab, mode="soft")
    assert list(again.edges()) == list(facts.edges())
    # (walk, park) seeds the whole stem class
    for form in ("walk", "walks", "walking", "walked"):
        assert facts.edge_weight(toy_vocab.id_of(form), toy_vocab.id_of("park")) > 0
    report(f"criterion 10: ingestion audit clean, kept={rep.kept} "
           f"discarded={rep.discarded}, symmetry/weights/closure/idempotence hold")
