"""Malformed request lines on a live connection (DESIGN.md, "Fault model").

Every line below — a wrong-typed envelope field, truncated JSON, nesting
deeper than the parser recurses — gets exactly one ``ok: false`` response
that names its problem; the connection then answers ``ping`` and
``stats`` as before, and no job was submitted.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServeOptions, SolveServer, parse_address

from .conftest import solve_payload


@pytest.fixture(scope="module")
def server():
    srv = SolveServer("127.0.0.1:0", options=ServeOptions(solver_threads=1))
    srv.start()
    yield srv
    srv.stop()


def _request(**fields) -> dict:
    return {"op": "solve", "config": solve_payload(), **fields}


def _line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


junk = st.one_of(
    st.text(max_size=8),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
not_seconds = st.one_of(
    junk,
    st.integers(max_value=0),
    st.floats(max_value=0.0),
    st.sampled_from([float("nan"), float("inf"), 1e300]),
)
#: (line, a word its error must name)
wrong_fields = st.one_of(
    st.tuples(st.just("priority"), st.one_of(junk, st.floats())),
    st.tuples(st.just("timeout"), not_seconds),
    st.tuples(st.just("wait_timeout"), not_seconds),
    st.tuples(st.just("tag"), st.one_of(st.integers(), st.floats(), st.booleans())),
    st.tuples(st.just("config"), st.one_of(st.none(), st.integers(), st.text(max_size=8))),
).map(lambda kv: (_line(_request(**{kv[0]: kv[1]})), kv[0]))
truncated = st.sampled_from(
    [_line(_request(priority=2, timeout=30.0, tag="t")), _line({"op": "ping"})]
).flatmap(
    lambda line: st.integers(1, len(line) - 1).map(lambda cut: (line[:cut], "not valid JSON"))
)
deep = st.tuples(
    st.sampled_from(["[", '{"a":', '{"op":"solve","config":[']),
    st.sampled_from([5_000, 100_000]),
    st.booleans(),
).map(
    lambda t: (t[0] * t[1] + ("]" * t[1] if t[2] and t[0] == "[" else ""), "nested too deeply")
)


def _exchange(handle, line: bytes) -> dict:
    handle.write(line)
    handle.flush()
    return json.loads(handle.readline())


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=st.one_of(wrong_fields, truncated, deep))
def test_one_refusal_per_malformed_line(server, case):
    line, names = case
    kind, target = parse_address(server.address)
    with socket.create_connection(target, timeout=30.0) as sock:
        handle = sock.makefile("rwb")
        before = _exchange(handle, b'{"op":"stats"}\n')["stats"]["totals"]
        response = _exchange(handle, line.encode("utf-8") + b"\n")
        assert response["ok"] is False
        assert names in response["error"]
        # The next answer is the ping's: the bad line got one response.
        assert _exchange(handle, b'{"op":"ping"}\n') == {"ok": True, "protocol": 1, "op": "ping"}
        assert _exchange(handle, b'{"op":"stats"}\n')["stats"]["totals"] == before
