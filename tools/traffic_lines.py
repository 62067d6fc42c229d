#!/usr/bin/env python3
"""List the statements of ``src/logicdec/`` that no real use of the package
executes.

Where ``untested_lines.py`` traces the test suite, this tool traces what a
user runs, in this process and under the same tracer.  The traffic comes in
parts:

- ``cli``: README's commands.  ``ingest-kg`` writes the toy snapshot; then
  ``decode`` runs on ``lexical20`` and ``dialogue10``, with the n-gram and
  the transformer scorer, with and without ``--trace``.  It also runs once
  with ``--rules`` (the suite's shipped rules as a file) and once with
  ``--weights`` (a saved seeded model).  ``baseline-beam`` and ``eval`` run
  on each suite.
- ``service``: an in-process ``LogicServer`` answers a vocabulary
  ``prove``, a target ``prove`` and a ``decide`` over a socket.
- ``demo:<name>``: each script of ``demos/``.
- ``bench:<workload>``: 1 s runs of the benchmark workload, at ``--trace 0``
  and ``--trace 1``.  The ``logicdec serve`` process that ``service-50k``
  starts is not traced; the ``service`` part covers the server's code.

It prints ``path:line: source`` for each statement that none of the chosen
parts ran, then their count.  A part that fails is named on stderr, with
its error, and the tool then exits 1.  It needs only the stdlib and the
package's own dependencies.

Run from anywhere:  python tools/traffic_lines.py [part ...]
(the default runs every part; ``--list`` prints their names).
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import socket
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from untested_lines import ROOT, report, run_traced  # noqa: E402

TOY = ROOT / "data" / "toy"
TEMPLATES = ROOT / "src" / "logicdec" / "templates"


def cli_call(argv: list) -> None:
    """Run ``logicdec argv`` in this process; raise if it exits nonzero."""
    from logicdec import cli

    argv = [str(a) for a in argv]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"logicdec {' '.join(argv)} exited {status}: "
                           f"{captured.getvalue().strip()[-300:]}")


def toy_snapshot(out: Path) -> Path:
    """README's ``ingest-kg`` of the toy world, written under ``out``."""
    snapshot = out / "toy.fb"
    cli_call(["ingest-kg", "--triples", TOY / "kg.tsv", "--vocab", TOY / "vocab.txt",
              "--mode", "soft", "--out", snapshot, "--stopwords", TOY / "stopwords.txt",
              "--blackwords", TOY / "blackwords.txt"])
    return snapshot


def run_cli() -> None:
    from logicdec.kb import Vocabulary
    from logicdec.transformer import TinyTransformer, TransformerConfig, save_weights

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        snapshot = toy_snapshot(out)
        weights = out / "toy.weights"
        vocab_size = len(Vocabulary.from_file(TOY / "vocab.txt"))
        save_weights(TinyTransformer(TransformerConfig(vocab_size=vocab_size, seed=0)), weights)
        for suite, corpus, rules in (("lexical20", "corpus_lexical.txt", "commongen_hard"),
                                     ("dialogue10", "corpus_dialogue.txt", "personachat")):
            instances = TOY / f"{suite}.jsonl"
            shared = ["--factbase", snapshot, "--instances", instances, "--max-length", "16"]
            scorers = {"ngram": ["--scorer", "ngram", "--corpus", TOY / corpus],
                       "transformer": ["--scorer", "transformer"]}
            for name, scorer in scorers.items():
                for extra in ([], ["--trace"]):
                    results = out / f"{suite}-{name}{'-trace' if extra else ''}.jsonl"
                    cli_call(["decode", *shared, *scorer, *extra, "--out", results])
                    cli_call(["eval", "--results", results, "--instances", instances])
                results = out / f"{suite}-{name}-beam.jsonl"
                cli_call(["baseline-beam", *shared, *scorer, "--out", results])
                cli_call(["eval", "--results", results, "--instances", instances])
            cli_call(["decode", *shared, *scorers["ngram"], "--rules",
                      TEMPLATES / f"{rules}.rules",
                      "--out", out / f"{suite}-rules.jsonl"])
            cli_call(["decode", *shared, "--scorer", "transformer", "--weights", weights,
                      "--out", out / f"{suite}-weights.jsonl"])


def run_service() -> None:
    import numpy as np

    from logicdec.kb import load_factbase
    from logicdec.rules import parse_program
    from logicdec.service import LogicServer

    with tempfile.TemporaryDirectory() as tmp:
        facts = load_factbase(toy_snapshot(Path(tmp)))
    rules = (TEMPLATES / "commongen_hard.rules").read_text("utf-8")
    v = facts.vocab
    sets = {"C": [v.id_of("garden"), v.id_of("piano")], "Prev": [v.id_of("<s>")]}
    requests = [
        {"op": "prove", "rule": "R", "domain": "vocab", "ctx": {"sets": sets}},
        {"op": "prove", "rule": "R", "domain": sets["Prev"] + sets["C"],
         "ctx": {"sets": sets}},
        {"op": "decide", "p": np.full(len(v), 1.0 / len(v)).tolist(),
         "truth": [0.5] * len(v), "alpha": 2.0},
    ]
    server = LogicServer(("127.0.0.1", 0), facts, parse_program(rules))
    server.start_background()
    try:
        with socket.create_connection(server.server_address, timeout=30) as sock, \
                sock.makefile("r", encoding="utf-8") as reader:
            for request in requests:
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                reply = json.loads(reader.readline())
                if "error" in reply:
                    raise RuntimeError(f"service {request['op']}: {reply['error']}")
    finally:
        server.shutdown()
        server.server_close()


def run_demo(path: Path) -> None:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        runpy.run_path(str(path), run_name="__main__")
    if not captured.getvalue().strip():
        raise RuntimeError(f"demo {path.stem} printed nothing")


def run_workload(name: str) -> None:
    import run  # perfbench/run.py

    for trace in ("0", "1"):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                               "--trace", trace])
        if status != 0:
            raise RuntimeError(f"bench {name} --trace {trace} exited {status}: "
                               f"{captured.getvalue().strip()[-300:]}")


def parts() -> dict:
    """Each part's name -> the function that runs it."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["workloads"]
    return {"cli": run_cli, "service": run_service,
            **{f"demo:{d.stem}": (lambda d=d: run_demo(d))
               for d in sorted((ROOT / "demos").glob("*.py"))},
            **{f"bench:{w['name']}": (lambda w=w: run_workload(w["name"])) for w in workloads}}


def main(argv: list[str]) -> int:
    known = parts()
    if argv == ["--list"]:
        print("\n".join(known))
        return 0
    if unknown := [name for name in argv if name not in known]:
        print(f"unknown part {unknown[0]!r}; the parts are: {', '.join(known)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    def traffic() -> list[str]:
        failures = []
        for name in argv or known:
            try:
                known[name]()
            except Exception:  # the other parts still run
                failures.append(f"{name}:\n{traceback.format_exc()}")
        return failures

    failures, ran = run_traced(traffic)
    report(ran)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
