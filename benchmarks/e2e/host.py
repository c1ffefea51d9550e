"""Host fingerprint, host-speed calibration and the noisy-host guard.

Every record carries what the numbers were measured on. The speed of a
shared host is not constant: on the box of the first record identical work
took between 1.6 s and 3.3 s within a quarter of an hour, in slow periods
minutes long, so medians over a 20 s run do not hold still. Four fixed
kernels (:class:`Calibrator`) are therefore timed before and after every
repeat, and the repeat's times are divided by the *slowdown* they show
against fixed reference times — the ledger's seconds are seconds on a host
running the kernels at the reference speed. A repeat whose two samples
differ by more than :data:`NOISY_THRESHOLD` ran on a host that changed
speed under it and is retried once.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Relative drift of the slowdown across a repeat beyond which it is noisy.
NOISY_THRESHOLD = 0.15

#: Kernel times (ms) on the first record's host in its quiet state. Only
#: ratios between runs on one host carry meaning; anchoring here keeps the
#: normalised seconds close to wall-clock seconds on a quiet host.
REFERENCE_MS = {"cache": 3.0, "stream": 26.0, "python": 11.0, "objects": 31.0}


class Calibrator:
    """Four fixed kernels with the bottlenecks the workloads have: a
    cache-resident numpy kernel (3.2 MB), a memory-streaming one with fresh
    48 MB temporaries like the sweep kernel's, a pure-Python integer loop,
    and a Python object churn (allocate, sort, chase 80 000 small objects)
    like the per-track tracing code. One sample takes ~0.5 s."""

    def __init__(self) -> None:
        self._small = np.linspace(0.0, 4.0, 400_000)
        self._large = np.linspace(0.0, 4.0, 6_000_000)
        self._stream()  # first touch of the large pages is not host speed

    def _cache(self) -> None:
        float((np.exp(-self._small) * self._small).sum())

    def _stream(self) -> None:
        z = (self._large - 0.5) * self._large
        z -= self._large
        float(z.sum())

    @staticmethod
    def _python() -> None:
        total = 0
        for i in range(200_000):
            total += i * i

    @staticmethod
    def _objects() -> None:
        items = [(i * 7919) % 100003 for i in range(40_000)]
        pairs = [(value, [value, value + 1]) for value in items]
        pairs.sort(key=lambda pair: pair[0])
        total = 0
        for value, pair in pairs:
            total += pair[1] - value

    @staticmethod
    def _median_ms(kernel: Callable[[], None], rounds: int) -> float:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return 1.0e3 * statistics.median(times)

    def sample(self) -> dict[str, float]:
        """Median milliseconds of each kernel and their joint slowdown (the
        geometric mean of measured / reference)."""
        result = {
            "cache": self._median_ms(self._cache, 15),
            "stream": self._median_ms(self._stream, 7),
            "python": self._median_ms(self._python, 5),
            "objects": self._median_ms(self._objects, 3),
        }
        result["slowdown"] = math.prod(
            result[name] / REFERENCE_MS[name] for name in REFERENCE_MS
        ) ** (1.0 / len(REFERENCE_MS))
        return result


def is_noisy(before: dict[str, float], after: dict[str, float]) -> bool:
    low, high = sorted((before["slowdown"], after["slowdown"]))
    return high - low > NOISY_THRESHOLD * low


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass  # not Linux: fall through to platform's answer
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"  # older numpy: show_config has no dict mode


def _git_rev(repo: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def fingerprint(repo: Path) -> dict[str, Any]:
    """What a reader needs to judge whether two records are comparable."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(repo),
        "loadavg": list(os.getloadavg()),
    }


#: Fingerprint keys that must agree for two records to be compared.
COMPARABLE_KEYS = ("cpu_count", "cpu_model", "machine", "python", "numpy", "blas")
