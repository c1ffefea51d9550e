"""Socket front door: TCP/Unix round-trips and the serve smoke story.

``TestServeSmoke`` is the serve smoke story: start a real server, submit
three requests of which one repeats an earlier manifest exactly, and
prove the repeat came from the report cache — hit counters visible in
the returned report, flux digest identical to the original — and that
concurrent clients on their own connections all get their answers.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import ServeClient, ServeOptions, SolveServer, parse_address

from .conftest import solve_payload

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def server():
    srv = SolveServer(
        "127.0.0.1:0",
        options=ServeOptions(solver_threads=2, report_cache_size=8),
    )
    srv.start()
    yield srv
    srv.stop()


class TestParseAddress:
    def test_tcp_forms(self):
        assert parse_address("127.0.0.1:7911") == ("tcp", ("127.0.0.1", 7911))
        assert parse_address(":7911") == ("tcp", ("127.0.0.1", 7911))

    def test_unix_form(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    @pytest.mark.parametrize("bad", ["nonsense", "host:port", "unix:"])
    def test_malformed_addresses_raise(self, bad):
        with pytest.raises(ServeError):
            parse_address(bad)


class TestServeSmoke:
    def test_three_requests_one_exact_repeat(self, server):
        first = solve_payload()
        second = solve_payload()
        second["solver"]["max_iterations"] = 3
        with ServeClient(server.address) as client:
            r1 = client.solve(first)
            r2 = client.solve(second)
            r3 = client.solve(first)  # exact-manifest repeat of r1
        assert [r["cache_hit"] for r in (r1, r2, r3)] == [False, False, True]
        # The hit's counters tell the reuse story inside the report itself.
        counters = r3["report"]["counters"]
        assert counters["report_cache_hits"] == 1
        assert counters["report_cache_misses"] == 0
        assert counters["serve_requests"] == 1
        # Bitwise-identical answer, straight off the wire.
        assert r3["keff_hex"] == r1["keff_hex"]
        assert r3["flux_sha256"] == r1["flux_sha256"]
        assert r2["keff_hex"] != r1["keff_hex"]

    def test_concurrent_clients_get_one_answer_per_manifest(self, server):
        """Three clients on their own connections, two manifests between
        them: no request fails, each manifest is solved once, and every
        answer to it carries the same bits."""
        payloads = [solve_payload(), solve_payload()]
        payloads[1]["solver"]["max_iterations"] = 3
        answers, errors = [], []

        def tenant(offset):
            try:
                with ServeClient(server.address) as client:
                    for i in range(4):
                        index = (offset + i) % 2
                        answers.append((index, client.solve(payloads[index])))
            except (ReproError, OSError) as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=tenant, args=(n,)) for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert not errors
        assert len(answers) == 12
        assert sum(not answer["cache_hit"] for _, answer in answers) == 2
        for index in (0, 1):
            bits = {(a["keff_hex"], a["flux_sha256"]) for i, a in answers if i == index}
            assert len(bits) == 1

    def test_stats_reflect_the_traffic(self, server):
        with ServeClient(server.address) as client:
            client.solve(solve_payload())
            client.solve(solve_payload())
            stats = client.stats()
        assert stats["totals"]["submitted"] == 2
        assert stats["report_cache"]["hits"] == 1

    def test_ping(self, server):
        with ServeClient(server.address) as client:
            assert client.ping()["ok"] is True

    def test_wire_level_errors_keep_the_connection_alive(self, server):
        kind, target = parse_address(server.address)
        with socket.create_connection(target, timeout=30.0) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"{not json}\n")
            handle.flush()
            assert b'"ok": false' in handle.readline()
            handle.write(b'{"op": "time-travel"}\n')
            handle.flush()
            assert b"unknown op" in handle.readline()
            handle.write(b'{"op": "ping"}\n')  # still serving afterwards
            handle.flush()
            assert b'"ok": true' in handle.readline()

    def test_mistyped_config_is_refused_on_a_live_connection(self, server):
        """A wrongly typed config value is a ConfigError answered on the
        wire, not a crash that drops the connection."""
        payload = solve_payload()
        payload["solver"]["keff_tolerance"] = "1e-3"
        with ServeClient(server.address) as client:
            response = client.request({"op": "solve", "config": payload})
            assert response["ok"] is False
            assert "solver.keff_tolerance" in response["error"]
            assert client.ping()["ok"] is True  # same connection

    def test_solve_without_config_is_refused(self, server):
        with ServeClient(server.address) as client:
            response = client.request({"op": "solve"})
        assert response["ok"] is False
        assert "config" in response["error"]

    def test_job_lookup_over_the_wire(self, server):
        with ServeClient(server.address) as client:
            response = client.solve(solve_payload(), tag="traced")
            job = client.job(response["job_id"])
        assert job["state"] == "done"
        assert job["tag"] == "traced"


class TestUnixTransport:
    def test_round_trip(self, tmp_path):
        address = f"unix:{tmp_path / 'serve.sock'}"
        with SolveServer(address, options=ServeOptions(solver_threads=1)) as server:
            with ServeClient(server.address) as client:
                assert client.solve(solve_payload())["converged"] is False
        assert not (tmp_path / "serve.sock").exists()  # cleaned up


class TestShutdown:
    def test_shutdown_op_answers_then_stops(self):
        server = SolveServer("127.0.0.1:0", options=ServeOptions(solver_threads=1))
        stopped = threading.Event()
        server.on_stop = stopped.set
        server.start()
        with ServeClient(server.address) as client:
            assert client.shutdown(drain=True)["ok"] is True
        assert stopped.wait(timeout=30.0)  # listener fully closed
        with pytest.raises(ServeError):
            ServeClient(server.address, timeout=0.5).ping()


class TestSubprocessServer:
    def test_python_dash_m_repro_serve(self):
        """The server as an operator starts it: ``python -m repro.serve``."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--address", "127.0.0.1:0", "--threads", "1",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro-serve listening on ")
            address = banner.split()[-1]
            other_payload = solve_payload()
            other_payload["solver"]["max_iterations"] = 2
            with ServeClient(address) as client:
                fresh = client.solve(solve_payload())
                other = client.solve(other_payload)
                repeat = client.solve(solve_payload())
                assert not fresh["cache_hit"] and not other["cache_hit"]
                assert repeat["cache_hit"]
                assert repeat["report"]["counters"]["report_cache_hits"] == 1
                assert repeat["flux_sha256"] == fresh["flux_sha256"]
                client.shutdown(drain=True)
            proc.wait(timeout=60)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestCommandLine:
    def test_flag_defaults_are_the_service_defaults(self):
        from repro.serve.__main__ import build_parser, serve_options

        assert serve_options(build_parser().parse_args([])) == ServeOptions()

    def test_flags_reach_the_options(self):
        from repro.serve.__main__ import build_parser, serve_options

        args = build_parser().parse_args(
            ["--threads", "3", "--queue-depth", "5", "--cache-size", "0", "--timeout", "2.5"]
        )
        assert serve_options(args) == ServeOptions(
            solver_threads=3, max_queue_depth=5, report_cache_size=0, default_timeout=2.5
        )
