"""Running one repeat of ``serve-mix``: a fresh ``python -m repro.serve``
on a unix socket, a closed loop of 2 connections over the seeded request
schedule, and a protocol ``shutdown`` — all timed from the client side.

Server-side numbers (queue wait, execute time, reuse counters) are read
from what the server itself returns: the ``serve/*`` stages and counters
of each response's report and the ``stats`` op.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError, ReproError
from repro.io.config import load_config
from repro.observability.record import RunReport
from repro.serve import protocol
from repro.serve.client import ServeClient

import trace as tracing
from metrics import PER_LAYER, nearest_rank
from ops import child_env, fresh_workdir, hygiene_failures, reap, shm_entries, tail_of
from workloads import (
    SERVE_CACHE_SIZE,
    SERVE_CONNECTIONS,
    SERVE_ROUNDS,
    SERVE_THREADS,
    Workload,
    serve_block,
    serve_manifests,
    serve_schedule,
)

LISTENING = "repro-serve listening on"
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
#: Rounds of the schedule under ``--smoke`` (36 requests).
SMOKE_ROUNDS = 3
_REQUEST_SPAN = next(
    name for name, path in tracing.SPAN_TABLE
    if path == "repro.serve.client:ServeClient.solve"
)


def run_serve_repeat(workload: Workload, seed: int, traced: bool, smoke: bool = False) -> dict:
    """One repeat; returns end-to-end metrics, failures, and — if traced —
    per-layer metrics and spans. Raises nothing for a failed request: it
    is counted and named."""
    workdir = fresh_workdir()
    try:
        return _serve(workload, seed, traced, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _await_listening(proc: subprocess.Popen) -> bool:
    """Block on the server's ``listening on`` line (no polling)."""
    killer = threading.Timer(SERVER_START_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            if LISTENING in line:
                return True
        return False
    finally:
        killer.cancel()


def _serve(workload: Workload, seed: int, traced: bool, smoke: bool, workdir: Path) -> dict:
    base = load_config(workload.config_path).to_dict()
    manifests = serve_manifests(base, str(workdir / "cache"))
    schedule = serve_schedule(seed, SMOKE_ROUNDS if smoke else SERVE_ROUNDS)
    # A unix socket path is capped near 100 bytes: the server binds it
    # relative to its cwd, the clients dial it relative to ours.
    address = "unix:" + os.path.relpath(workdir / "s.sock")
    shm_before = shm_entries()
    stderr_path = workdir / "server.log"
    failures: list[str] = []
    requests: list[dict[str, Any]] = []
    recorders: list[tracing.Recorder] = []
    stats: dict[str, Any] = {}
    peak_rss_kb = 0
    with open(stderr_path, "wb") as stderr:
        t_launch = tracing.now()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--address", "unix:s.sock",
                "--threads", str(SERVE_THREADS),
                "--cache-size", str(SERVE_CACHE_SIZE),
            ],
            cwd=workdir,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=child_env(workdir / "cache"),
            start_new_session=True,
        )
        listening = _await_listening(proc)
        t_listen = tracing.now()
        t_ping = t_listen
        if listening:
            try:
                with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as control:
                    control.ping()
                    t_ping = tracing.now()
                    requests, recorders = _drive(address, manifests, schedule, traced)
                    stats = control.stats()
                    peak_rss_kb = tracing.peak_rss_kb(proc.pid)
                    control.shutdown()
            except (ReproError, OSError) as exc:
                failures.append(f"server control connection failed: {exc}")
                proc.kill()
        else:
            failures.append(f"server never listened ({tail_of(stderr_path)})")
        proc.stdout.close()
        exit_code, usage, timed_out = reap(proc, SERVER_STOP_TIMEOUT_S)
    if timed_out:
        failures.append(f"server killed {SERVER_STOP_TIMEOUT_S:.0f}s after shutdown")
    elif listening and exit_code != 0:
        failures.append(f"server exit code {exit_code} ({tail_of(stderr_path)})")
    failures += hygiene_failures("serve", shm_before, proc.pid)

    server_failures = len(failures)  # so far: launch, control, exit, hygiene
    failed_requests = _check_responses(workload, requests, smoke, failures)
    unsent = len(schedule) - len([r for r in requests if r["seq"] >= 0])
    done = [r for r in requests if r["t_recv"] is not None]
    result: dict[str, Any] = {
        "attempted": len(schedule),
        "failed": min(len(schedule), failed_requests + unsent + server_failures),
        "failures": failures,
        "identity": {
            f"manifest{r['manifest']}": [r["response"]["keff_hex"], r["response"]["flux_sha256"]]
            for r in done if r["ok"]
        },
        "e2e": None,
        "layers": None,
        "spans": None,
    }
    if not done:
        return result
    t_first = min(r["t_send"] for r in done)
    t_last = max(r["t_recv"] for r in done)
    e2e = {
        "wall_s": t_last - t_launch,
        "setup_s": t_ping - t_launch,
        "solve_s": t_last - t_first,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    result["e2e"] = e2e
    if traced:
        spans = [{"name": "serve.startup", "start": t_launch, "end": t_ping,
                  "parent": None, "op": 0}]
        for recorder in recorders:
            for span in recorder.spans:
                spans.append({**span, "op": len(spans)})
        result["spans"] = spans
        result["layers"] = _layers(
            done, stats, e2e, spans, t_listen - t_launch, usage.ru_utime + usage.ru_stime
        )
    return result


def _drive(address: str, manifests: list[dict], schedule: list[int], traced: bool):
    """The closed loop: each connection sends its next request only after
    the previous one was answered; both draw from one shared schedule."""
    cursor = iter(enumerate(schedule))
    lock = threading.Lock()
    requests: list[dict[str, Any]] = []
    recorders = [tracing.Recorder() for _ in range(SERVE_CONNECTIONS)]

    def connection(recorder: tracing.Recorder) -> None:
        try:
            with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as client:
                solve = recorder.wrap(_REQUEST_SPAN, client.solve) if traced else client.solve
                while True:
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    seq, manifest = item
                    entry: dict[str, Any] = {
                        "seq": seq, "manifest": manifest, "t_send": tracing.now(),
                        "t_recv": None, "ok": False, "response": None, "error": None,
                    }
                    requests.append(entry)
                    try:
                        entry["response"] = solve(manifests[manifest])
                        entry["ok"] = True
                    except ReproError as exc:  # refused, timed out, failed: counted
                        entry["error"] = str(exc)
                    entry["t_recv"] = tracing.now()
        except (ReproError, OSError) as exc:
            with lock:
                requests.append({
                    "seq": -1, "manifest": -1, "t_send": tracing.now(), "t_recv": None,
                    "ok": False, "response": None, "error": f"connection failed: {exc}",
                })

    threads = [
        threading.Thread(target=connection, args=(recorder,), name=f"e2e-conn-{i}")
        for i, recorder in enumerate(recorders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests, recorders


def _check_responses(workload: Workload, requests: list[dict], smoke: bool,
                     failures: list[str]) -> int:
    """Output checks of every request; returns how many failed."""
    failed = 0
    first_seen: dict[int, tuple[str, str]] = {}
    for entry in sorted(requests, key=lambda r: r["seq"]):
        where = f"request {entry['seq']} (manifest {entry['manifest']})"
        problems = []
        response = entry["response"]
        if not entry["ok"]:
            problems.append(entry["error"] or "no response")
        else:
            try:
                RunReport.from_dict(response["report"])
                identity = (response["keff_hex"], response["flux_sha256"])
            except (ObservabilityError, KeyError) as exc:
                problems.append(f"missing or invalid report ({exc})")
            else:
                if first_seen.setdefault(entry["manifest"], identity) != identity:
                    problems.append("a repeat of this manifest returned different bits")
                expect = workload.expect[f"block{serve_block(entry['manifest'])}"]
                if not smoke:
                    problems += expect.mismatches(
                        response["converged"], response["keff"], response["num_iterations"]
                    )
        if problems:
            entry["ok"] = False
            failed += 1
            failures.append(f"{where}: {'; '.join(problems)}")
    return failed


def _rank(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for a class of requests that did not occur."""
    return nearest_rank(values, fraction) if values else 0.0


def _layers(done: list[dict], stats: dict, e2e: dict, spans: list[dict],
            startup_s: float, cpu_s: float) -> dict[str, float]:
    answered = [r for r in done if r["ok"]]
    fresh = [r for r in answered if not r["response"]["cache_hit"]]
    hits = [r for r in answered if r["response"]["cache_hit"]]

    def latency_ms(r: dict) -> float:
        return 1.0e3 * (r["t_recv"] - r["t_send"])

    def stage(r: dict, name: str) -> float:
        return r["response"]["report"]["stages"].get(name, 0.0)

    def counter(r: dict, name: str) -> int:
        return r["response"]["report"]["counters"].get(name, 0)

    shared = [r for r in fresh if counter(r, "tracking_cache_hits") > 0]
    cold = [r for r in fresh if counter(r, "tracking_cache_hits") == 0]
    queue_ms = [1.0e3 * stage(r, "serve/queued") for r in answered]
    latencies_ms = [latency_ms(r) for r in done]
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "startup.import_s": startup_s,
        "geometry.fsr_count": counter(answered[0], "fsr_count") if answered else 0,
        "tracks.generate_s": sum(stage(r, "track_generation") for r in fresh),
        "solver.sweep_s": sum(stage(r, "transport_solving/sweep") for r in fresh),
        "solver.iterations": sum(r["response"]["num_iterations"] for r in fresh),
        "solver.segments_swept": sum(counter(r, "segments_swept") for r in fresh),
        "cmfd.apply_s": sum(stage(r, "transport_solving/cmfd") for r in fresh),
        "cmfd.solves": sum(counter(r, "cmfd_solves") for r in fresh),
        "cmfd.inner_iterations": sum(counter(r, "cmfd_iterations") for r in fresh),
        "serve.requests": len(done),
        "serve.cache_hits": len(hits),
        "serve.hit_ratio": len(hits) / len(done),
        "serve.lru_evictions": sum(counter(r, "report_cache_evictions") for r in fresh),
        "serve.tracking_cache_hits": len(shared),
        "serve.rejected": stats.get("totals", {}).get("rejected", 0),
        "serve.timed_out": stats.get("totals", {}).get("timed_out", 0),
        "serve.req_per_s": len(done) / e2e["solve_s"],
        "serve.req_p50_ms": nearest_rank(latencies_ms, 0.50),
        "serve.req_p95_ms": nearest_rank(latencies_ms, 0.95),
        "serve.queue_wait_p50_ms": _rank(queue_ms, 0.50),
        "serve.queue_wait_p95_ms": _rank(queue_ms, 0.95),
        "serve.hit_p50_ms": _rank([latency_ms(r) for r in hits], 0.50),
        "serve.cold_p50_ms": _rank([latency_ms(r) for r in cold], 0.50),
        "serve.shared_p50_ms": _rank([latency_ms(r) for r in shared], 0.50),
        "serve.execute_p50_ms": _rank([1.0e3 * stage(r, "serve/execute") for r in fresh], 0.50),
        "serve.wire_bytes": sum(
            len(protocol.encode(r["response"])) for r in answered
        ),
        "proc.cpu_s": cpu_s,
        "proc.cpu_over_wall": cpu_s / e2e["wall_s"],
        "trace.spans": len(spans),
        "trace.unattributed_frac": 1.0 - tracing.covered_seconds(spans) / e2e["wall_s"],
    })
    sweep_s = layers["solver.sweep_s"]
    if sweep_s > 0.0 and layers["solver.segments_swept"]:
        layers["solver.ns_per_segment"] = 1.0e9 * sweep_s / layers["solver.segments_swept"]
        layers["solver.mseg_per_s"] = 1.0e-6 * layers["solver.segments_swept"] / sweep_s
    layers["cmfd.share"] = layers["cmfd.apply_s"] / e2e["solve_s"]
    return layers
