"""What a test sees of processes and shared memory, read from ``/proc``
and ``/dev/shm``: the tier-1 side of the leak rules the e2e harness
applies to every run (``benchmarks/e2e/ops.py``)."""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]


def shm_entries() -> set[str]:
    """The names in ``/dev/shm`` now."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def state(pid: int) -> str | None:
    """``/proc`` state letter of ``pid`` (``None``: no such process)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def live_children(pid: int) -> list[int]:
    """Live (non-zombie) children of ``pid``."""
    found: set[int] = set()
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return []
    for task in tasks:
        try:
            found.update(int(child) for child in (task / "children").read_text().split())
        except OSError:
            continue  # the thread exited while we were looking
    return sorted(child for child in found if state(child) not in (None, "Z"))


def session_members(session_id: int) -> list[int]:
    """Live (non-zombie) processes of a session."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8")
        except OSError:
            continue  # exited while we were looking
        fields = stat.rsplit(")", 1)[-1].split()  # state ppid pgrp session
        if fields[0] != "Z" and int(fields[3]) == session_id:
            members.append(int(entry))
    return members


def live_segments(pids: list[int]) -> set[str]:
    """``/dev/shm`` segments these processes map that still exist."""
    names = set()
    for pid in pids:
        try:
            maps = Path("/proc", str(pid), "maps").read_text(encoding="utf-8")
        except OSError:
            continue  # exited while we were looking
        for line in maps.splitlines():
            if "/dev/shm/" in line:
                names.add(line.rsplit("/dev/shm/", 1)[1].split()[0])
    return names & shm_entries()


def survivors_after(pids: list[int], grace: float) -> list[int]:
    """The pids still alive ``grace`` seconds from now (awaited on their
    pidfds, not polled)."""
    deadline = time.monotonic() + grace
    alive = []
    for pid in pids:
        try:
            fd = os.pidfd_open(pid)
        except ProcessLookupError:
            continue
        try:
            gone, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(fd)
        if not gone:
            alive.append(pid)
    return alive


@contextlib.contextmanager
def killed_caller(
    script: str, ready: Callable[[list[int]], bool], timeout: float = 60.0
) -> Iterator[tuple[list[int], set[str]]]:
    """Run ``script`` in a session of its own and SIGKILL it once
    ``ready(members)`` holds for its session's members; yields those
    members and the ``/dev/shm`` segments they mapped. Whatever of the
    session is left is killed on the way out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    caller = subprocess.Popen(
        [sys.executable, "-c", script], env=env, cwd=ROOT, start_new_session=True
    )
    try:
        deadline = time.monotonic() + timeout
        while not ready(members := session_members(caller.pid)):
            assert caller.poll() is None, "the caller ended before it was killed"
            assert time.monotonic() < deadline, "the caller never got ready"
            time.sleep(0.01)
        segments = live_segments(members)
        caller.kill()
        caller.wait()
        yield members, segments
    finally:
        caller.kill()
        caller.wait()
        for pid in session_members(caller.pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
