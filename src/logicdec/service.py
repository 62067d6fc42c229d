"""Newline-delimited JSON service exposing prove and decide over a socket.

One JSON object per line in, one per line out.  Requests::

    {"op": "prove", "rule": "R", "domain": "vocab" | [ids],
     "ctx": {"sets": {"C": [..], "Prev": [..]}}}
    {"op": "decide", "p": [..], "truth": [..], "alpha": 2.0}

Responses carry ``{"truth": [...]}`` or ``{"p_shifted": [...]}``.  A
``decide`` takes ``p`` and ``truth`` over the served vocabulary, one value
per token.  A malformed request yields a single ``{"error": ...}`` line and
the connection stays open; a line longer than ``_line_limit`` of the served
vocabulary size gets one ``{"error": ...}`` line, and the connection
closes.  The fact base and rule program are immutable, so any number of
connections are served concurrently.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading

import numpy as np

from .decision import decide
from .kb import FactBase
from .prover import Domain, EvalContext, prove
from .rules import RuleProgram

__all__ = ["LogicServer", "serve_forever", "handle_request"]

log = logging.getLogger("logicdec.service")


def handle_request(request: dict, facts: FactBase, program: RuleProgram) -> dict:
    """Dispatch one decoded request; never raises on bad input."""
    try:
        op = request.get("op")
        if op == "prove":
            rule = request["rule"]
            raw_domain = request["domain"]
            if raw_domain == "vocab":
                domain = Domain.vocabulary(facts)
            elif isinstance(raw_domain, list):
                domain = Domain.targets([int(i) for i in raw_domain])
            else:
                return {"error": f"domain must be 'vocab' or a list of ids, got {raw_domain!r}"}
            raw_ctx = request.get("ctx", {})
            sets = {str(k): tuple(int(i) for i in v)
                    for k, v in raw_ctx.get("sets", {}).items()}
            ctx = EvalContext(facts=facts, sets=sets)
            truth = prove(program, rule, domain, ctx)
            return {"truth": truth.tolist()}
        if op == "decide":
            p = np.asarray(request["p"], dtype=np.float64)
            truth = np.asarray(request["truth"], dtype=np.float64)
            for name, vector in (("p", p), ("truth", truth)):
                if vector.shape != (len(facts.vocab),):
                    return {"error": f"{name} must hold one value per vocabulary token "
                                     f"({len(facts.vocab)}), got shape {vector.shape}"}
            alpha = float(request["alpha"])
            return {"p_shifted": decide(p, truth, alpha).tolist()}
        return {"error": f"unknown op {op!r}"}
    except Exception as exc:  # per-request failures must not kill the service
        return {"error": f"{type(exc).__name__}: {exc}"}


def _line_limit(vocab_size: int) -> int:
    """Longest request line, newline included: room for a ``decide`` whose
    two vectors hold float64 ``repr``s (at most 24 characters) and ", "
    separators, plus its keys and ``alpha``."""
    return 2 * 26 * vocab_size + 4096


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        limit = _line_limit(len(self.server.facts.vocab))
        while raw := self.rfile.readline(limit + 1):
            if len(raw) > limit:
                self.reply({"error": f"request line longer than {limit} bytes"})
                return  # the rest of the line is never read
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                response = {"error": f"bad request line: {exc}"}
            else:
                response = handle_request(request, self.server.facts, self.server.program)
            self.reply(response)

    def reply(self, response: dict) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class LogicServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind_address: tuple[str, int], facts: FactBase,
                 program: RuleProgram):
        super().__init__(bind_address, _Handler)
        self.facts = facts
        self.program = program

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve_forever(facts: FactBase, program: RuleProgram, host: str, port: int) -> None:
    with LogicServer((host, port), facts, program) as server:
        log.info("serving on %s:%d", *server.server_address)
        print(f"listening on {server.server_address[0]}:{server.server_address[1]}",
              flush=True)
        server.serve_forever()
