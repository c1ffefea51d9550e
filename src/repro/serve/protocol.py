"""JSON-lines wire protocol for the solve server.

One request per line, one response per line, UTF-8; every payload is a
JSON object. Serialization goes through the observability exporters'
single JSON door (:func:`~repro.observability.exporters.dump_record` /
:func:`~repro.observability.exporters.parse_record`), the same codec the
reports themselves use — a served report survives the wire bit-for-bit
because it never meets a second encoder.

Requests carry an ``op``:

* ``solve`` — ``config`` (full run-config mapping) plus optional
  ``priority`` (int), ``timeout`` (queue deadline, seconds), ``tag``
  (string), ``wait_timeout`` (seconds); a wrong-typed one is refused by
  name and submits nothing. The response embeds the job summary, the
  headline results (``keff``/``keff_hex``/``converged``/
  ``num_iterations``), a SHA-256 of the flux bytes, and the full report
  payload.
* ``ping`` — liveness; echoes the protocol version.
* ``stats`` — service totals, queue depth, report-cache stats, and per
  solve slot its pid, solves, busy seconds and restarts.
* ``job`` — ``job_id``; lifecycle summary of a known job.
* ``shutdown`` — optional ``drain`` (default true). The server responds
  first, then stops.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import numpy as np

from repro.errors import ObservabilityError, ServeError
from repro.observability.exporters import dump_record, parse_record
from repro.serve.jobs import JobState, SolveJob

#: Bumped when a request or response shape changes incompatibly.
PROTOCOL_VERSION = 1


def encode(payload: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    return (dump_record(payload) + "\n").encode("utf-8")


def decode(line: str | bytes) -> dict[str, Any]:
    """Parse one wire line into a payload object."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeError(f"request is not UTF-8: {exc}") from None
    try:
        payload = parse_record(line)
    except (ObservabilityError, ValueError) as exc:
        raise ServeError(f"request is not valid JSON: {exc}") from None
    except RecursionError:
        raise ServeError("request is not valid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ServeError(
            f"protocol payloads must be JSON objects (got {type(payload).__name__})"
        )
    return payload


def flux_digest(scalar_flux: np.ndarray) -> str:
    """SHA-256 over the flux buffer (C order) — a wire-cheap bitwise probe."""
    return hashlib.sha256(np.ascontiguousarray(scalar_flux).tobytes()).hexdigest()


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "protocol": PROTOCOL_VERSION, "error": message}


def ping_response() -> dict[str, Any]:
    return {"ok": True, "protocol": PROTOCOL_VERSION, "op": "ping"}


def stats_response(stats: Mapping[str, Any]) -> dict[str, Any]:
    return {"ok": True, "protocol": PROTOCOL_VERSION, "op": "stats", "stats": dict(stats)}


def job_response(job: SolveJob) -> dict[str, Any]:
    return {
        "ok": True,
        "protocol": PROTOCOL_VERSION,
        "op": "job",
        "job": job.describe(),
    }


def solve_response(job: SolveJob) -> dict[str, Any]:
    """The full answer for a terminal (or still-running, if ``wait`` was
    cut short) job. ``ok`` is true only for ``done``."""
    response: dict[str, Any] = {
        "ok": job.state is JobState.DONE,
        "protocol": PROTOCOL_VERSION,
        "op": "solve",
        **job.describe(),
    }
    if job.state is JobState.DONE and job.report is not None:
        report = job.report
        results = report.results
        response["keff"] = float(results.keff)
        response["keff_hex"] = float(results.keff).hex()
        response["converged"] = bool(results.converged)
        response["num_iterations"] = int(results.num_iterations)
        if job.scalar_flux is not None:
            response["flux_sha256"] = flux_digest(job.scalar_flux)
        response["report"] = report.to_dict()
    return response
