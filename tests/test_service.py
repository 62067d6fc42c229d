import json
import socket

import pytest

from logicdec.decision import decide
from logicdec.prover import Domain, EvalContext, prove
from logicdec.rules import parse_program
from logicdec.service import LogicServer, handle_request

RULES = """
R(x) :- exists c in C, ~Y(c) ^ Rel(x, c)
Rel(x, y) :- Edge(x, y) | Equal(x, y)
Y(x) :- exists y in Prev, Equal(x, y)
"""


@pytest.fixture(scope="module")
def program():
    return parse_program(RULES)


@pytest.fixture()
def server(toy_facts, program):
    srv = LogicServer(("127.0.0.1", 0), toy_facts, program)
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


class Client:
    def __init__(self, server):
        self.sock = socket.create_connection(server.server_address, timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def call(self, payload) -> dict:
        if isinstance(payload, str):
            line = payload
        else:
            line = json.dumps(payload)
        self.sock.sendall((line + "\n").encode("utf-8"))
        return json.loads(self.reader.readline())

    def close(self):
        self.reader.close()
        self.sock.close()


def test_prove_request_matches_library_bitwise(server, toy_facts, program):
    client = Client(server)
    try:
        v = toy_facts.vocab
        sets = {"C": [v.id_of("garden")], "Prev": [v.id_of("<s>")]}
        reply = client.call({"op": "prove", "rule": "R", "domain": "vocab",
                             "ctx": {"sets": sets}})
        local = prove(program, "R", Domain.vocabulary(toy_facts),
                      EvalContext(facts=toy_facts,
                                  sets={k: tuple(ids) for k, ids in sets.items()}))
        assert reply["truth"] == local.tolist()
    finally:
        client.close()


def test_decide_identity_over_the_wire(server):
    client = Client(server)
    try:
        p = [0.25, 0.25, 0.5]
        reply = client.call({"op": "decide", "p": p, "truth": [0, 0, 0], "alpha": 3.0})
        assert reply["p_shifted"] == pytest.approx(p, abs=1e-9)
    finally:
        client.close()


def test_malformed_line_keeps_connection_open(server):
    client = Client(server)
    try:
        reply = client.call("this is not json")
        assert "error" in reply
        # the connection is still usable
        good = client.call({"op": "decide", "p": [1.0], "truth": [0.0], "alpha": 0.0})
        assert good["p_shifted"] == [1.0]
    finally:
        client.close()


def test_unknown_op_and_missing_fields(server):
    client = Client(server)
    try:
        assert "error" in client.call({"op": "teleport"})
        assert "error" in client.call({"op": "prove", "rule": "R", "domain": 7})
        assert "error" in client.call({"op": "prove", "rule": "Nope", "domain": "vocab",
                                       "ctx": {"sets": {}}})
    finally:
        client.close()


def test_concurrent_clients(server):
    clients = [Client(server) for _ in range(4)]
    try:
        for i, c in enumerate(clients):
            reply = c.call({"op": "decide", "p": [0.5, 0.5],
                            "truth": [1.0, 0.0], "alpha": float(i)})
            assert "p_shifted" in reply
    finally:
        for c in clients:
            c.close()


def test_handle_request_never_raises(toy_facts, program):
    bad_requests = [
        {}, {"op": "prove"}, {"op": "prove", "rule": "R", "domain": [1, "x"]},
        {"op": "decide", "p": [0.5], "truth": [1, 1], "alpha": 1},
        {"op": "decide", "p": [0.5], "truth": [1], "alpha": -4},
        {"op": "decide", "p": [0.0, 0.0], "truth": [1, 0], "alpha": 1},
        {"op": "decide", "p": [1, 3], "truth": [0, 0], "alpha": 1},
        {"op": "decide", "p": [0.5, 0.5], "truth": [1, 0], "alpha": "nan"},
        {"op": "decide", "p": [0.5, 0.5], "truth": [2, 0], "alpha": 1},
    ]
    for req in bad_requests:
        out = handle_request(req, toy_facts, program)
        assert "error" in out


def test_domain_as_id_list(server, toy_facts, program):
    client = Client(server)
    try:
        v = toy_facts.vocab
        ids = [v.id_of("garden"), v.id_of("flowers"), v.id_of("dog")]
        sets = {"C": [v.id_of("garden")], "Prev": [v.id_of("<s>")]}
        reply = client.call({"op": "prove", "rule": "R", "domain": ids,
                             "ctx": {"sets": sets}})
        local = prove(program, "R", Domain.targets(ids),
                      EvalContext(facts=toy_facts,
                                  sets={k: tuple(x) for k, x in sets.items()}))
        assert reply["truth"] == local.tolist()
    finally:
        client.close()
