"""The socket front door of the solve service.

:class:`SolveServer` wraps a :class:`~repro.serve.service.SolveService`
in a threading stdlib socket server speaking the JSON-lines protocol of
:mod:`repro.serve.protocol` over TCP or a Unix-domain socket. Each client
connection holds one handler thread; a connection may pipeline many
requests (one per line) and keeps its order. Solver concurrency is bound
by the *service's* solve slots, not by connection count — a hundred
clients still share the same admission-controlled queue. The listener is
bound before the service forks its slots; a slot drops that inherited
socket first thing (:mod:`repro.serve.slots`).

Shutdown is graceful by default: the ``shutdown`` op answers first, then
the service drains its backlog before the listener stops. ``python -m
repro.serve`` (see :mod:`repro.serve.__main__`) builds one of these.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from typing import Any, Callable

from repro.errors import ReproError, ServeError
from repro.io.logging_utils import get_logger
from repro.serve import protocol
from repro.serve.service import ServeOptions, SolveService


def parse_address(address: str) -> tuple[str, Any]:
    """``"host:port"`` / ``":port"`` -> TCP, ``"unix:/path"`` -> Unix socket.

    Returns ``("tcp", (host, port))`` or ``("unix", path)``.
    """
    address = str(address).strip()
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ServeError("unix address needs a socket path after 'unix:'")
        return "unix", path
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ServeError(
            f"address {address!r} is neither 'host:port' nor 'unix:/path'"
        )
    try:
        port_number = int(port)
    except ValueError:
        raise ServeError(f"address {address!r} has a non-numeric port") from None
    return "tcp", (host or "127.0.0.1", port_number)


class _LineHandler(socketserver.StreamRequestHandler):
    """One thread per connection; one request/response pair per line."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            line = self.rfile.readline()
            if not line:
                return
            if not line.strip():
                continue
            stop_drain = None
            try:
                request = protocol.decode(line)
                response = self.server.solve_server.dispatch(request)  # type: ignore[attr-defined]
                stop_drain = response.pop("_stop_drain", None)
            except (ServeError, ReproError) as exc:
                response = protocol.error_response(str(exc))
            self.wfile.write(protocol.encode(response))
            self.wfile.flush()
            if stop_drain is not None:
                self.server.solve_server.stop_async(drain=stop_drain)  # type: ignore[attr-defined]
                return


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    solve_server: "SolveServer"


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    solve_server: "SolveServer"


class SolveServer:
    """Socket server over a (possibly shared) :class:`SolveService`."""

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        service: SolveService | None = None,
        options: ServeOptions | None = None,
    ) -> None:
        if service is not None and options is not None:
            raise ServeError("pass either a service or options, not both")
        self.service = service if service is not None else SolveService(options)
        self._owns_service = service is None
        self._logger = get_logger("repro.serve")
        self._unix_path: str | None = None
        kind, target = parse_address(address)
        if kind == "unix":
            self._unix_path = target
            if os.path.exists(target):
                os.unlink(target)
            self._sock_server: socketserver.BaseServer = _UnixServer(
                target, _LineHandler
            )
        else:
            self._sock_server = _TcpServer(target, _LineHandler)
        self._sock_server.solve_server = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None
        self._stop_lock = threading.Lock()
        self._stopped = False
        #: Invoked (once) after the server has fully stopped — the
        #: ``__main__`` runner hooks its exit event here so a protocol
        #: ``shutdown`` terminates the process, not just the listener.
        self.on_stop: Callable[[], None] | None = None

    @property
    def address(self) -> str:
        """The live address a client should dial (ephemeral port resolved)."""
        if self._unix_path is not None:
            return f"unix:{self._unix_path}"
        host, port = self._sock_server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "SolveServer":
        self.service.start()
        self._serve_thread = threading.Thread(
            target=self._sock_server.serve_forever,
            name="repro-serve-listener",
            daemon=True,
        )
        self._serve_thread.start()
        self._logger.info("solve server listening on %s", self.address)
        return self

    def stop(self, drain: bool = True) -> None:
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        if self._owns_service:
            self.service.close(drain=drain)
        self._sock_server.shutdown()
        self._sock_server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self._unix_path is not None and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)
        self._logger.info("solve server stopped")
        if self.on_stop is not None:
            self.on_stop()

    def stop_async(self, drain: bool = True) -> None:
        """Stop from inside a handler thread without deadlocking it."""
        threading.Thread(
            target=self.stop, kwargs={"drain": drain}, daemon=True
        ).start()

    def __enter__(self) -> "SolveServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    # ---------------------------------------------------------- dispatch

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return protocol.ping_response()
        if op == "stats":
            return protocol.stats_response(self.service.stats())
        if op == "job":
            return protocol.job_response(self.service.job(str(request.get("job_id"))))
        if op == "shutdown":
            drain = bool(request.get("drain", True))
            return {
                "ok": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "op": "shutdown",
                "drain": drain,
                "_stop_drain": drain,
            }
        if op == "solve":
            return self._dispatch_solve(request)
        raise ServeError(f"unknown op {op!r}")

    def _dispatch_solve(self, request: dict[str, Any]) -> dict[str, Any]:
        config = request.get("config")
        if not isinstance(config, dict):
            raise ServeError("solve request needs a 'config' object")
        job = self.service.submit(
            config,
            priority=int(request.get("priority", 0)),
            timeout=request.get("timeout"),
            tag=request.get("tag"),
        )
        if request.get("wait", True) and not job.done:
            job.wait(request.get("wait_timeout"))
        return protocol.solve_response(job)
