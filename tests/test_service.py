import json
import math
import socket

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicdec import service
from logicdec.decision import decide
from logicdec.prover import Domain, EvalContext, prove
from logicdec.rules import parse_program
from logicdec.service import LogicServer, _float_list, _line_limit, handle_request
from logicdec.truth import Truth

from conftest import p_shifted_of

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

    def call_raw(self, payload) -> str:
        if isinstance(payload, str):
            line = payload
        else:
            line = json.dumps(payload)
        self.sock.sendall((line + "\n").encode("utf-8"))
        return self.reader.readline()

    def call(self, payload) -> dict:
        return json.loads(self.call_raw(payload))

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
        assert reply["truth"] == local.dense().tolist()
    finally:
        client.close()


def one_hot(n, i):
    return [1.0 if j == i else 0.0 for j in range(n)]


def test_decide_identity_over_the_wire(server, toy_facts):
    client = Client(server)
    try:
        n = len(toy_facts.vocab)
        p = [(1 + i % 3) / (2 * n) for i in range(n)]
        p[0] = 1.0 - sum(p[1:])
        reply = client.call({"op": "decide", "p": p, "truth": [0] * n, "alpha": 3.0})
        assert p_shifted_of(reply).tolist() == pytest.approx(p, abs=1e-9)
    finally:
        client.close()


def test_malformed_line_keeps_connection_open(server, toy_facts):
    client = Client(server)
    try:
        reply = client.call("this is not json")
        assert "error" in reply
        # the connection is still usable
        n = len(toy_facts.vocab)
        good = client.call({"op": "decide", "p": one_hot(n, 3), "truth": [0.0] * n,
                            "alpha": 0.0})
        assert p_shifted_of(good).tolist() == one_hot(n, 3)
    finally:
        client.close()


def test_blank_lines_get_no_reply_and_a_non_object_one_error(server, toy_facts):
    client = Client(server)
    try:
        client.sock.sendall(b"\n   \n")
        # the first reply read is the one to the list, so the blank lines got none
        reply = client.call("[1, 2]")
        assert reply == {"error": "bad request line: request must be a JSON object"}
        n = len(toy_facts.vocab)
        good = client.call({"op": "decide", "p": one_hot(n, 3), "truth": [0.0] * n,
                            "alpha": 0.0})
        assert p_shifted_of(good).tolist() == one_hot(n, 3)
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


def test_concurrent_clients(server, toy_facts):
    clients = [Client(server) for _ in range(4)]
    n = len(toy_facts.vocab)
    try:
        for i, c in enumerate(clients):
            reply = c.call({"op": "decide", "p": [1.0 / n] * n,
                            "truth": one_hot(n, i), "alpha": float(i)})
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


@pytest.mark.parametrize("field, value, message", [
    ("alpha", "2", "alpha must be a JSON number"),
    ("alpha", True, "alpha must be a JSON number"),
    ("alpha", None, "alpha must be a JSON number"),
    ("alpha", [1.0], "alpha must be a JSON number"),
    ("p", ["0.5"] * 75, "p must be a list of JSON numbers"),
    ("p", [None] * 75, "p must be a list of JSON numbers"),
    ("p", [1.0 / 75] * 74 + ["x"], "p must be a list of JSON numbers"),
    ("truth", [True] * 75, "truth must be a list of JSON numbers"),
    ("truth", ["1"] * 75, "truth must be a list of JSON numbers"),
    # booleans among numbers, nested lists and values that are not lists
    ("truth", [True] + [0.5] * 74, "truth must be a list of JSON numbers"),
    ("p", [True] + [0] * 74, "p must be a list of JSON numbers"),
    ("p", [[1.0 / 75]] * 75, "p must be a list of JSON numbers"),
    ("truth", 0.5, "truth must be a list of JSON numbers"),
    ("truth", {"0": 0.5}, "truth must be a list of JSON numbers"),
])
def test_decide_takes_only_json_numbers(toy_facts, program, field, value, message):
    request = {"op": "decide", "p": [1.0 / 75] * 75, "truth": [0.5] * 75, "alpha": 1.0}
    assert len(p_shifted_of(handle_request(request, toy_facts, program))) == 75
    # integers are numbers too
    request_ints = {**request, "truth": [1] * 75, "alpha": 2}
    assert len(p_shifted_of(handle_request(request_ints, toy_facts, program))) == 75
    reply = handle_request({**request, field: value}, toy_facts, program)
    assert list(reply) == ["error"] and message in reply["error"]


@pytest.mark.parametrize("p_len, truth_len", [(74, 75), (75, 74), (76, 76), (3, 3)])
def test_decide_vectors_must_span_the_vocabulary(server, toy_facts, p_len, truth_len):
    assert len(toy_facts.vocab) == 75
    client = Client(server)
    try:
        reply = client.call({"op": "decide", "p": [1.0 / p_len] * p_len,
                             "truth": [0.5] * truth_len, "alpha": 1.0})
        assert "one value per vocabulary token (75)" in reply["error"]
        # the connection is still usable
        good = client.call({"op": "decide", "p": [1.0 / 75] * 75, "truth": [0.5] * 75,
                            "alpha": 1.0})
        assert len(p_shifted_of(good)) == 75
    finally:
        client.close()


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
        assert reply["truth"] == local.dense().tolist()
    finally:
        client.close()


def test_line_cap_admits_any_decide_and_closes_on_a_longer_line(server, toy_facts):
    n = len(toy_facts.vocab)
    limit = _line_limit(n)
    client = Client(server)
    try:
        # the longest float64 repr, 24 characters, in every slot
        worst = json.dumps({"op": "decide", "p": [-2.2250738585072014e-308] * n,
                            "truth": [-2.2250738585072014e-308] * n,
                            "alpha": -2.2250738585072014e-308})
        assert len(worst) < limit
        assert "nonnegative" in client.call(worst)["error"]
        # a line of exactly the limit, newline included, is served
        good = json.dumps({"op": "decide", "p": [1.0 / n] * n, "truth": [0.5] * n,
                           "alpha": 1.0})
        assert len(p_shifted_of(client.call(good.ljust(limit - 1)))) == n
        client.sock.sendall(b" " * limit + b"{}\n" + (good + "\n").encode("utf-8"))
        assert "longer than" in json.loads(client.reader.readline())["error"]
        try:
            assert client.reader.readline() == ""  # closed: the next request is not served
        except ConnectionResetError:
            pass  # the server closed with the rest of the line unread
    finally:
        client.close()


def test_prove_reply_line_is_json_dumps_of_the_truth_list(server, toy_facts, program):
    client = Client(server)
    try:
        v = toy_facts.vocab
        sets = {"C": [v.id_of("garden"), v.id_of("dog")], "Prev": [v.id_of("<s>")]}
        ctx = EvalContext(facts=toy_facts, sets={k: tuple(ids) for k, ids in sets.items()})
        for domain, dom in (("vocab", Domain.vocabulary(toy_facts)),
                            ([v.id_of("garden"), 0, 5], Domain.targets([v.id_of("garden"), 0, 5])),
                            ([], Domain.targets([]))):
            line = client.call_raw({"op": "prove", "rule": "R", "domain": domain,
                                    "ctx": {"sets": sets}})
            local = prove(program, "R", dom, ctx)
            assert line == json.dumps({"truth": local.dense().tolist()}) + "\n"
    finally:
        client.close()


# Values around the points where float repr changes form (1e-4 and 1e16),
# the smallest subnormal, a signed zero and the extremes.
SPECIAL_VALUES = [-0.0, 5e-324, -5e-324, 1.0, 0.5, 1e-4, 1e16, 1.7976931348623157e308,
                  2.2250738585072014e-308] + [
    math.nextafter(x, toward) for x in (1e-4, 1e16) for toward in (0.0, math.inf)]


@st.composite
def sparse_vectors(draw):
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3000)))
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    values = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.zeros(n)
    on = rng.random(n) < density
    v[on] = rng.choice(np.array(values), size=int(on.sum()))
    # some entries from random bit patterns, which reach every exponent
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    mixed = on & (rng.random(n) < 0.3) & np.isfinite(bits)
    v[mixed] = bits[mixed]
    return v


@settings(max_examples=300, deadline=None)
@given(sparse_vectors(), st.sampled_from([0.0, -0.0, 0.5, 1.0]))
@example(np.array([]), 0.0)
@example(np.array([-0.0]), 0.0)
@example(np.array([0.0, 5e-324]), 0.0)
@example(np.zeros(3000), 0.0)
@example(np.array(SPECIAL_VALUES), 0.0)
@example(np.array(SPECIAL_VALUES), 0.5)
def test_truth_list_text_equals_json_dumps_of_the_list(v, background):
    # the truth that is v, with the entries that equal the background left out
    truth = Truth(background, np.arange(len(v)), v, len(v)).canonical()
    assert truth.dense().tobytes() == v.tobytes()
    assert _float_list(truth) == json.dumps(v.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_truth_is_an_error_reply_and_the_connection_stays_open(
        server, toy_facts, program, monkeypatch, bad):
    n = len(toy_facts.vocab)
    monkeypatch.setattr(service, "prove",
                        lambda *args: Truth(0.0, np.array([1, 2]), np.array([0.5, bad]), 3))
    request = {"op": "prove", "rule": "R", "domain": [1, 2, 3], "ctx": {"sets": {}}}
    assert "non-finite" in handle_request(request, toy_facts, program)["error"]
    client = Client(server)
    try:
        line = client.call_raw(request)
        assert set(json.loads(line)) == {"error"} and "non-finite" in line
        good = client.call({"op": "decide", "p": one_hot(n, 3), "truth": [0.0] * n,
                            "alpha": 0.0})
        assert p_shifted_of(good).tolist() == one_hot(n, 3)
    finally:
        client.close()


@pytest.mark.parametrize("domain, sets, field", [
    ([41.9], {"C": [41], "Prev": [0]}, "domain"),      # would prove id 41
    ([True], {"C": [41], "Prev": [0]}, "domain"),      # would read as id 1
    ("vocab", {"C": "41", "Prev": [0]}, "ctx.sets.C"),  # would bind C = (4, 1)
    ("vocab", {"C": [41], "Prev": [0, 2.0]}, "ctx.sets.Prev"),
])
def test_ids_that_are_not_json_integers_get_an_error_naming_the_field(server, domain, sets,
                                                                      field):
    request = {"op": "prove", "rule": "R", "domain": domain, "ctx": {"sets": sets}}
    client = Client(server)
    try:
        reply = client.call(request)
        assert set(reply) == {"error"} and field in reply["error"]
        # the connection is still usable
        good = client.call({**request, "domain": [41], "ctx": {"sets": {"C": [41], "Prev": [0]}}})
        assert len(good["truth"]) == 1
    finally:
        client.close()
