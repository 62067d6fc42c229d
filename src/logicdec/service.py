"""Newline-delimited JSON service exposing prove and decide over a socket.

One JSON object per line in, one per line out.  Requests::

    {"op": "prove", "rule": "R", "domain": "vocab" | [ids],
     "ctx": {"sets": {"C": [ids], "Prev": [ids]}}}
    {"op": "decide", "p": [..], "truth": [..], "alpha": 2.0}

Replies::

    {"truth": [0.0, 0.75, ...]}     one float per domain entry
    {"p_shifted": "AAAA..."}        base64 of the V little-endian float64s
    {"error": "..."}

Token ids are JSON integers; any other value where an id belongs gets an
``{"error": ...}`` reply that names the field.  A client reads
``p_shifted`` back, exact to the bit, with
``np.frombuffer(base64.b64decode(s), "<f8")``.  A ``decide`` takes ``p``
and ``truth`` over the served vocabulary, one value per token.  A ``prove``
whose truth vector holds a non-finite value gets an ``{"error": ...}``
reply.  A malformed request yields a single ``{"error": ...}`` line and the
connection stays open; a line longer than ``_line_limit`` of the served
vocabulary size gets one ``{"error": ...}`` line, and the connection
closes.  The fact base and rule program are immutable, so any number of
connections are served concurrently.
"""

from __future__ import annotations

import base64
import json
import logging
import socketserver
import threading
from typing import Union

import numpy as np

from .decision import decide
from .kb import FactBase
from .prover import Domain, EvalContext, prove
from .rules import RuleProgram
from .truth import Truth

__all__ = ["LogicServer", "serve_forever", "handle_request"]

log = logging.getLogger("logicdec.service")

# A request answered: ("truth", Truth), ("p_shifted", vector) or ("error", message).
Answer = tuple[str, Union[Truth, np.ndarray, str]]


def _ids(value, field: str) -> tuple[int, ...]:
    """The token ids of a request field, which must be a list of JSON
    integers: ``41.9``, ``true`` or ``"41"`` is refused, not read as an id."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of token ids, got {type(value).__name__}")
    for i in value:
        if type(i) is not int:
            raise ValueError(f"{field} must hold integer token ids, got {i!r}")
    return tuple(value)


def _answer(request: dict, facts: FactBase, program: RuleProgram) -> Answer:
    """Answer one decoded request; never raises on bad input."""
    try:
        op = request.get("op")
        if op == "prove":
            rule = request["rule"]
            raw_domain = request["domain"]
            if raw_domain == "vocab":
                domain = Domain.vocabulary(facts)
            elif isinstance(raw_domain, list):
                domain = Domain.targets(_ids(raw_domain, "domain"))
            else:
                return "error", f"domain must be 'vocab' or a list of ids, got {raw_domain!r}"
            raw_ctx = request.get("ctx", {})
            sets = {k: _ids(v, f"ctx.sets.{k}") for k, v in raw_ctx.get("sets", {}).items()}
            ctx = EvalContext(facts=facts, sets=sets)
            truth = prove(program, rule, domain, ctx)
            if not (np.isfinite(truth.background) and np.isfinite(truth.values).all()):
                return "error", f"rule '{rule}' gave a non-finite truth value"
            return "truth", truth
        if op == "decide":
            if type(alpha := request["alpha"]) not in (int, float):  # not bool either
                return "error", f"alpha must be a JSON number, got {alpha!r}"
            for name in ("p", "truth"):
                # not booleans, strings, nulls or nested lists, even among numbers
                if type(vector := request[name]) is not list \
                        or not set(map(type, vector)) <= {int, float}:
                    return "error", f"{name} must be a list of JSON numbers"
                if len(vector) != len(facts.vocab):
                    return "error", (f"{name} must hold one value per vocabulary token "
                                     f"({len(facts.vocab)}), got {len(vector)}")
            return "p_shifted", decide(request["p"], request["truth"], float(alpha))
        return "error", f"unknown op {op!r}"
    except Exception as exc:  # per-request failures must not kill the service
        return "error", f"{type(exc).__name__}: {exc}"


def _float_list(truth: Truth) -> str:
    """``json.dumps(truth.dense().tolist())`` of a finite truth, byte for
    byte, written from its entries: each goes through ``repr``, and each run
    of background positions between them is one repeated ``repr`` of the
    background."""
    background = repr(float(truth.background)) + ", "
    gaps = np.diff(truth.ids, prepend=-1) - 1
    text = "".join([background * gap + repr(x) + ", "
                    for gap, x in zip(gaps.tolist(), truth.values.tolist())])
    text += background * (truth.size - 1 - truth.ids[-1] if len(truth.ids) else truth.size)
    return "[" + text[:-2] + "]"


def _base64(v: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(v, dtype="<f8").tobytes()).decode("ascii")


def _reply_line(answer: Answer) -> bytes:
    """The reply line of an answer, newline included."""
    key, value = answer
    if key == "truth":
        text = _float_list(value)
    elif key == "p_shifted":
        text = '"' + _base64(value) + '"'
    else:
        text = json.dumps(value)
    return f'{{"{key}": {text}}}\n'.encode("ascii")


def handle_request(request: dict, facts: FactBase, program: RuleProgram) -> dict:
    """The reply to one decoded request as a client decodes its line: the
    truth as a list of floats, ``p_shifted`` as its base64 string, or an
    ``error`` message.  Never raises on bad input."""
    key, value = _answer(request, facts, program)
    if key == "truth":
        value = value.dense().tolist()
    elif key == "p_shifted":
        value = _base64(value)
    return {key: value}


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
                self.reply(("error", f"request line longer than {limit} bytes"))
                return  # the rest of the line is never read
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                answer = ("error", f"bad request line: {exc}")
            else:
                answer = _answer(request, self.server.facts, self.server.program)
            self.reply(answer)

    def reply(self, answer: Answer) -> None:
        self.wfile.write(_reply_line(answer))
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
