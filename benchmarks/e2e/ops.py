"""Running one repeat of a solve workload: child processes, timed and
checked from outside.

A repeat gets a fresh temp dir (tracking cache, reports, sockets), removed
afterwards. Each operation is one ``child.py`` process launched in its own
session; the parent stamps the launch instant before ``Popen`` and the
exit instant after ``wait4``, so interpreter start and ``import repro`` are
inside the numbers and the child's resource usage is read per operation.
Hygiene is a measured failure: a ``/dev/shm`` segment or a live process of
the child's session left behind after an operation fails that operation
and is named in the output.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.observability.exporters import read_record
from repro.observability.record import RunReport

import trace as tracing
from workloads import Workload

E2E_DIR = Path(__file__).resolve().parent
SRC_DIR = E2E_DIR.parents[1] / "src"
#: Scratch space inside the checkout (git-ignored): temp dirs of running
#: repeats and the span files of driver-mode runs.
WORK_DIR = E2E_DIR / ".work"

#: A child that has not exited after this many seconds is killed and fails.
OP_TIMEOUT_S = 150.0
#: How long a finished child's helper processes get to exit on their own.
EXIT_GRACE_S = 2.0


def child_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def fresh_workdir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="op-", dir=WORK_DIR))


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def session_survivors(session_id: int) -> list[int]:
    """PIDs of the session a finished child led that are still alive
    after :data:`EXIT_GRACE_S` (helpers such as multiprocessing's resource
    tracker exit a few milliseconds after their parent; each is awaited on
    its pidfd, not polled)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8")
        except OSError:
            continue  # exited while we were looking
        fields = stat.rsplit(")", 1)[-1].split()
        # After "pid (comm)": state ppid pgrp session ...
        if fields[0] != "Z" and int(fields[3]) == session_id:
            members.append(int(entry))
    deadline = tracing.now() + EXIT_GRACE_S
    survivors = []
    for pid in members:
        try:
            fd = os.pidfd_open(pid)
        except ProcessLookupError:
            continue  # exited since the scan
        try:
            exited, _, _ = select.select([fd], [], [], max(0.0, deadline - tracing.now()))
        finally:
            os.close(fd)
        if not exited:
            survivors.append(pid)
    return survivors


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, Any, bool]:
    """Wait for ``proc`` with its resource usage; kill it after ``timeout``.

    Returns ``(exit code, rusage, timed out)``.
    """
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    timed_out = fired.is_set() and os.WIFSIGNALED(status)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def hygiene_failures(label: str, shm_before: set[str], session_id: int) -> list[str]:
    """Leaks an operation left behind, named; survivors are then killed."""
    failures = []
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        failures.append(f"{label}: leaked /dev/shm segment(s) {', '.join(leaked)}")
    survivors = session_survivors(session_id)
    if survivors:
        failures.append(f"{label}: process(es) {survivors} outlived the operation")
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # gone between the scan and the kill
    return failures


def tail_of(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def smoke_config(workload: Workload, workdir: Path) -> Path:
    """The workload's YAML cut to a 2-iteration budget (``--smoke``)."""
    lines = []
    for line in workload.config_path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("max_iterations:"):
            line = line[: line.index("max_iterations:")] + "max_iterations: 2"
        lines.append(line)
    path = workdir / f"{workload.name}.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_solve_repeat(workload: Workload, traced: bool, smoke: bool = False) -> dict:
    """One repeat: every operation of ``workload`` as a fresh child.

    Returns the raw observations — per operation the launch/exit stamps,
    exit code, resource usage, the child's own record, its reports and (if
    traced) spans — plus the failures found. Pinned-result checks are
    skipped under ``smoke`` (a truncated solve reaches other numbers).
    """
    workdir = fresh_workdir()
    cache_dir = workdir / "cache"
    config = smoke_config(workload, workdir) if smoke else workload.config_path
    ops = []
    try:
        for index, label in enumerate(workload.ops):
            ops.append(
                _run_child(workload, label, index, config, workdir, cache_dir, traced, smoke)
            )
        cache_bytes = dir_bytes(cache_dir) if cache_dir.is_dir() else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"ops": ops, "cache_bytes": cache_bytes}


def _run_child(
    workload: Workload,
    label: str,
    index: int,
    config: Path,
    workdir: Path,
    cache_dir: Path,
    traced: bool,
    smoke: bool,
) -> dict:
    report_dir = workdir / f"op{index}"
    report_dir.mkdir()
    trace_out = report_dir / "spans.json"
    argv = [
        sys.executable, str(E2E_DIR / "child.py"),
        "--config", str(config),
        "--kind", "batch" if workload.kind == "batch" else "solve",
        "--report-dir", str(report_dir),
    ]
    if traced:
        argv += ["--trace-out", str(trace_out)]
    shm_before = shm_entries()
    stderr_path = report_dir / "stderr.log"
    with open(stderr_path, "wb") as stderr:
        t_launch = tracing.now()
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=child_env(cache_dir),
            start_new_session=True,
        )
        exit_code, usage, timed_out = reap(proc, OP_TIMEOUT_S)
        t_exit = tracing.now()

    op: dict[str, Any] = {
        "label": label,
        "t_launch": t_launch,
        "t_exit": t_exit,
        "exit_code": exit_code,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": 0,
        "record": None,
        "reports": [],
        "report_bytes": 0,
        "spans": [],
        "facts": {},
    }
    failures = hygiene_failures(label, shm_before, proc.pid)
    expected_exit = 2 if smoke else workload.exit_code  # 2 iterations never converge
    if timed_out:
        failures.append(f"{label}: killed after {OP_TIMEOUT_S:.0f}s")
    elif exit_code != expected_exit:
        failures.append(
            f"{label}: exit code {exit_code}, expected {expected_exit} "
            f"({tail_of(stderr_path)})"
        )
    else:
        failures += _load_outputs(workload, label, report_dir, trace_out, traced, smoke, op)
    op["failures"] = failures
    return op


def _load_outputs(
    workload: Workload,
    label: str,
    report_dir: Path,
    trace_out: Path,
    traced: bool,
    smoke: bool,
    op: dict,
) -> list[str]:
    """Read the child's record, reports and spans; check pinned results."""
    failures = []
    try:
        op["record"] = read_record(report_dir / "child.json")
        op["max_rss_kb"] = op["record"]["peak_rss_kb"]
        if traced:
            payload = read_record(trace_out)
            op["spans"], op["facts"] = payload["spans"], payload["facts"]
        for state in op["record"]["states"]:
            path = report_dir / f"{state['name']}.json"
            payload = read_record(path)
            RunReport.from_dict(payload)  # schema + span-tree validation
            op["reports"].append(payload)
            op["report_bytes"] += path.stat().st_size
            if payload["results"]["keff_hex"] != state["keff_hex"]:
                failures.append(f"{label}/{state['name']}: report keff differs from the result")
    except (ObservabilityError, OSError, KeyError, TypeError) as exc:
        failures.append(f"{label}: missing or invalid output ({exc})")
        return failures
    if smoke:
        return failures
    for state in op["record"]["states"]:
        where = f"{label}/{state['name']}"
        expect = workload.expect.get(state["name"])
        if expect is None:
            failures.append(f"{where}: state not pinned by the workload")
            continue
        failures += [
            f"{where}: {problem}"
            for problem in expect.mismatches(
                state["converged"], state["keff"], state["iterations"]
            )
        ]
    if len(op["record"]["states"]) != len(workload.expect):
        failures.append(f"{label}: {len(op['record']['states'])} state(s) solved, "
                        f"{len(workload.expect)} pinned")
    return failures
