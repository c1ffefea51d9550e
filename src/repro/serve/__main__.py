"""``python -m repro.serve`` — run a solve server until interrupted.

Prints one machine-greppable line (``repro-serve listening on ADDR``)
once the listener is live, so scripts can scrape the resolved ephemeral
port; then blocks until SIGINT/SIGTERM and drains gracefully.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.serve.server import SolveServer
from repro.serve.service import ServeOptions


def build_parser() -> argparse.ArgumentParser:
    """The server's flags; every default is :class:`ServeOptions`' own."""
    defaults = ServeOptions()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent ANT-MOC solve service (JSON-lines over TCP/Unix).",
    )
    parser.add_argument(
        "--address",
        default="127.0.0.1:0",
        help="'host:port' (port 0 picks an ephemeral one) or 'unix:/path' "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=defaults.solver_threads,
        help="solve slots: solver threads, each fronting its own forked "
        "solver process (default: the CPUs this process may run on, "
        "%(default)s here)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=defaults.max_queue_depth,
        help="admission bound on pending requests (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=defaults.report_cache_size,
        help="manifest-keyed report cache capacity, 0 disables "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=defaults.default_timeout,
        help="default per-request queue deadline in seconds (default: none)",
    )
    return parser


def serve_options(args: argparse.Namespace) -> ServeOptions:
    """The service options parsed flags describe."""
    return ServeOptions(
        solver_threads=args.threads,
        max_queue_depth=args.queue_depth,
        report_cache_size=args.cache_size,
        default_timeout=args.timeout,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    server = SolveServer(args.address, options=serve_options(args))
    stop = threading.Event()
    server.on_stop = stop.set  # a protocol 'shutdown' op also exits
    server.start()
    print(f"repro-serve listening on {server.address}", flush=True)

    def _handle(signum: int, frame: object) -> None:  # pragma: no cover
        stop.set()

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)
    try:
        stop.wait()
    finally:
        server.stop(drain=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
