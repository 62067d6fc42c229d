"""Self-tests of the benchmark: world determinism, output checks that fail
on corrupted results, the tail rule and span self time.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from logicdec.decoder import Hypothesis  # noqa: E402
from logicdec.kb import load_factbase  # noqa: E402
from logicdec.rules import parse_program  # noqa: E402
from logicdec.service import handle_request  # noqa: E402

import world  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = world.WorldSpec(vocab_size=3_000, target_edges=8_000, active_families=120,
                        sentences=300, instances=8)


def test_world_is_byte_identical_for_a_seed(tmp_path):
    a = world.write_world(5, tmp_path / "a", SMALL)
    b = world.write_world(5, tmp_path / "b", SMALL)
    c = world.write_world(6, tmp_path / "c", SMALL)
    for name in ("factbase.snap", "corpus.txt", "lexical.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a == b
    assert a["snapshot_sha256"] != c["snapshot_sha256"]
    assert a["vocab_size"] == SMALL.vocab_size
    assert a["edges"] >= SMALL.target_edges
    assert a["stem_classes"] < a["vocab_size"]      # suffix families share a class
    assert a["snapshot_bytes"] == (tmp_path / "a" / "factbase.snap").stat().st_size


def test_world_concepts_are_base_forms_of_distinct_classes(tmp_path):
    world.write_world(3, tmp_path, SMALL)
    facts = load_factbase(tmp_path / "factbase.snap")
    for line in (tmp_path / "lexical.jsonl").read_text().splitlines():
        concepts = json.loads(line)["concepts"]
        assert 3 <= len(concepts) <= 5
        ids = [facts.vocab.id_of(c) for c in concepts]
        assert None not in ids
        assert len({int(facts.stems.class_of[i]) for i in ids}) == len(ids)


def test_check_flags_corrupted_hypothesis():
    good = Hypothesis((0, 4, 9), -3.5)
    assert workloads.check_hypothesis(good, 10) == []
    assert len(workloads.check_hypothesis(Hypothesis((0, 4, 10), -3.5), 10)) == 1
    assert len(workloads.check_hypothesis(Hypothesis((0, -1), math.nan), 10)) == 2


def test_decode_checks_fail_the_run_on_a_corrupted_result():
    phase = workloads.Phase(best={0: Hypothesis((0, 2), -1.0), 1: Hypothesis((0, 99), math.inf)})
    task = workloads.Task(workloads.TaskInstance("lexical", "x", ("a",)), None, None)
    out = workloads.Outcome()
    workloads.decode_checks(out, phase, [task, task], vocab_size=10)
    assert not out.correct
    ok = workloads.Outcome()
    workloads.decode_checks(ok, workloads.Phase(best={0: Hypothesis((0, 2), -1.0)}), [task], 10)
    assert ok.correct


def test_service_check_detects_a_changed_reply(tmp_path):
    world.write_world(4, tmp_path, SMALL)
    facts = load_factbase(tmp_path / "factbase.snap")
    program = parse_program((tmp_path / "lexical_hard.rules").read_text())
    blocks = workloads.service_blocks(4, tmp_path, facts.vocab)
    requests = next(blocks)[:4]
    sample = [(r, workloads.encode(handle_request(r, facts, program))) for r in requests]
    assert workloads.mismatched_replies(sample, facts, program) == []
    reply = json.loads(sample[1][1])
    key = next(iter(reply))
    reply[key][0] = math.nextafter(reply[key][0], 2.0)    # one ulp off
    sample[1] = (sample[1][0], workloads.encode(reply))
    assert workloads.mismatched_replies(sample, facts, program) == [1]


def test_tail_is_highest_percentile_with_ten_beyond():
    p, v = workloads.tail([float(i) for i in range(100)])
    assert (p, v) == (90.0, 89.0)
    assert workloads.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)
    assert workloads.tail([float(i) for i in range(16)]) == (100.0, 15.0)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    tr.start[0], tr.end[0] = 0.0, 10.0
    tr.start[1], tr.end[1] = 2.0, 5.0
    s = tr.summary()
    assert s["outer"] == {"calls": 1, "s": 10.0, "self_s": 7.0}
    assert s["inner"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
