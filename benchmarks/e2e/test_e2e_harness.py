"""Self-tests of the end-to-end ledger's harness.

Run explicitly — tier-1 collects ``tests/`` only:

    python -m pytest -q benchmarks/e2e/test_e2e_harness.py

They pin the arithmetic the numbers rest on (span self times, percentile
rank, the seeded request schedule, the compare verdicts), the two-way match
between ``BENCHMARK.json`` and what ``run.py`` emits, and that the smoke
run of all six workloads finishes within a minute.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import time
from collections import Counter, OrderedDict
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
REPO_DIR = E2E_DIR.parents[1]
for entry in (str(REPO_DIR / "src"), str(E2E_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.observability.exporters import parse_record, read_record  # noqa: E402

import compare  # noqa: E402
import host  # noqa: E402
import metrics  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None, op=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op}


# ------------------------------------------------------------ span forest

def test_self_times_sum_to_the_whole():
    spans = [
        span("startup.import", 0.0, 1.0),
        span("solver.build", 1.0, 4.0),
        span("tracks.generate", 1.5, 2.5, parent=1),
        span("tracks.cache_store", 2.0, 2.25, parent=2),
        span("solver.build", 3.0, 3.5, parent=1),
        span("solver.loop", 4.5, 9.5),
        span("solver.sweep", 5.0, 9.0, parent=5),
    ]
    own = tracing.self_times(spans)
    assert own == [1.0, 1.5, 0.75, 0.25, 0.5, 1.0, 4.0]
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    assert sum(own) == pytest.approx(roots)
    by_name = tracing.self_time_by_name(spans)
    assert by_name["solver.build"] == pytest.approx(2.0)  # nested same-name spans add up
    # Wall 10 s: the roots cover 9 s, the gaps (4.0-4.5, 9.5-10) are unattributed.
    assert tracing.covered_seconds(spans) == pytest.approx(9.0)


def test_covered_seconds_is_a_union_not_a_sum():
    concurrent = [span("serve.request", 0.0, 2.0, op=1), span("serve.request", 1.0, 3.0, op=2),
                  span("serve.request", 5.0, 6.0, op=3)]
    assert tracing.covered_seconds(concurrent) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "bad",
    [
        [span("a", 0.0, 1.0, parent=3)],                      # parent does not exist
        [span("a", 0.0, 1.0, parent=0)],                      # its own parent
        [span("a", 0.0, 1.0), span("b", 0.5, 1.5, parent=0)],  # escapes its parent
        [span("a", 0.0, 1.0), span("b", 0.2, 0.4, parent=0, op=1)],  # crosses operations
        [span("a", 1.0, 0.5)],                                # negative duration
        [{"name": "a", "start": 0.0, "end": None, "parent": None, "op": 0}],  # never closed
    ],
)
def test_malformed_forests_are_rejected(bad):
    with pytest.raises(tracing.SpanError):
        tracing.self_times(bad)


def test_recorder_nests_and_keeps():
    recorder = tracing.Recorder()

    class Thing:
        def __init__(self):
            self.inner = recorder.wrap("inner", lambda: 7)()

    kept = recorder.wrap("outer", Thing.__init__, keep=True)
    thing = Thing.__new__(Thing)
    kept(thing)
    assert [s["name"] for s in recorder.spans] == ["outer", "inner"]
    assert recorder.spans[1]["parent"] == 0 and recorder.spans[0]["parent"] is None
    assert recorder.kept == [thing] and thing.inner == 7
    tracing.validate_forest([{**s, "op": 0} for s in recorder.spans])


def test_span_table_names_resolve_to_callables():
    for name, path in tracing.SPAN_TABLE:
        assert NAME.fullmatch(name)
        _owner, _attr, raw = tracing._resolve(path.removesuffix("[]"))
        target = raw.__func__ if isinstance(raw, classmethod) else raw
        if path.endswith("[]"):
            assert all(callable(fn) for fn in target.values())
        else:
            assert callable(target), path


# ------------------------------------------------------------- percentile

def test_nearest_rank_percentile():
    sample = [15, 20, 35, 40, 50]
    assert metrics.nearest_rank(sample, 0.05) == 15
    assert metrics.nearest_rank(sample, 0.30) == 20
    assert metrics.nearest_rank(sample, 0.40) == 20
    assert metrics.nearest_rank(sample, 0.50) == 35
    assert metrics.nearest_rank(sample, 1.00) == 50
    assert metrics.nearest_rank(list(reversed(sample)), 0.95) == 50
    assert metrics.nearest_rank([3], 0.5) == 3
    # 336 requests: p95 is the 320th value, 16 samples lie beyond it.
    assert metrics.nearest_rank(list(range(1, 337)), 0.95) == 320
    with pytest.raises(ValueError):
        metrics.nearest_rank([], 0.5)


# ------------------------------------------------------ host normalisation

def test_normalisation_scales_durations_and_rates_only():
    values = {"solver.sweep_s": 3.0, "solver.iter_ms": 30.0, "solver.ns_per_segment": 300.0,
              "solver.mseg_per_s": 4.0, "serve.req_per_s": 50.0, "solver.iterations": 282,
              "cmfd.share": 0.5, "solver.plan_bytes": 1024}
    scaled = metrics.normalized(values, metrics.PER_LAYER, 1.5)
    assert scaled["solver.sweep_s"] == pytest.approx(2.0)
    assert scaled["solver.iter_ms"] == pytest.approx(20.0)
    assert scaled["solver.ns_per_segment"] == pytest.approx(200.0)
    assert scaled["solver.mseg_per_s"] == pytest.approx(6.0)
    assert scaled["serve.req_per_s"] == pytest.approx(75.0)
    assert (scaled["solver.iterations"], scaled["cmfd.share"], scaled["solver.plan_bytes"]) \
        == (282, 0.5, 1024)
    # A rate times its duration is the same count on any host.
    assert scaled["solver.mseg_per_s"] * scaled["solver.sweep_s"] == pytest.approx(12.0)


def test_noisy_guard_and_slowdown():
    assert not host.is_noisy({"slowdown": 1.00}, {"slowdown": 1.14})
    assert host.is_noisy({"slowdown": 1.00}, {"slowdown": 1.16})
    assert host.is_noisy({"slowdown": 1.16}, {"slowdown": 1.00})
    sample = host.Calibrator().sample()
    assert set(sample) == set(host.REFERENCE_MS) | {"slowdown"}
    assert all(value > 0.0 for value in sample.values())


# -------------------------------------------------------- serve-mix schedule

def _lru(schedule, slots):
    cache: OrderedDict[int, None] = OrderedDict()
    hits = evictions = 0
    evicted = set()
    for manifest in schedule:
        if manifest in cache:
            hits += 1
            cache.move_to_end(manifest)
            continue
        cache[manifest] = None
        if len(cache) > slots:
            evicted.add(cache.popitem(last=False)[0])
            evictions += 1
    return hits, evictions, evicted


def test_schedule_is_seeded_and_keeps_the_work_constant():
    a, again, b = (workloads.serve_schedule(s) for s in (7, 7, 8))
    assert a == again
    assert a != b
    assert len(a) >= 300
    for schedule in (a, b):
        counts = Counter(schedule)
        assert len(counts) == len(workloads.SERVE_BLOCKS) * workloads.SERVE_VARIANTS
        assert {counts[m] for m in workloads.SERVE_HOT} == {workloads.SERVE_ROUNDS}
        assert len({counts[m] for m in counts if m not in workloads.SERVE_HOT}) == 1
        hits, evictions, evicted = _lru(schedule, workloads.SERVE_CACHE_SIZE)
        assert 0.75 <= hits / len(schedule) <= 0.85
        assert evictions >= 1
        assert not evicted & set(workloads.SERVE_HOT)
        # The sweeping share (cold + re-missed requests) sits in 15-25 %.
        assert 0.15 <= 1.0 - hits / len(schedule) <= 0.25
    assert _lru(a, workloads.SERVE_CACHE_SIZE)[:2] == _lru(b, workloads.SERVE_CACHE_SIZE)[:2]


# ----------------------------------------------------------------- compare

def _summary(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3, "n": 3, "unit": "s"}


def test_compare_verdicts():
    base = _summary(10.0, 9.9, 10.1)
    assert compare.verdict(base, _summary(10.2, 10.1, 10.3), 0.1, True) == "same"
    assert compare.verdict(base, _summary(11.5, 11.4, 11.6), 0.1, True) == "worse"
    assert compare.verdict(base, _summary(8.0, 7.9, 8.1), 0.1, True) == "better"
    # Spread beyond the bound and overlapping quartiles: cannot tell.
    assert compare.verdict(_summary(10.0, 8.0, 12.0), _summary(11.5, 9.0, 13.0), 0.1, True) \
        == "unresolved"
    assert compare.verdict(base, _summary(8.0, 7.9, 8.1), 0.1, False) == "unresolved"


# -------------------------------------------- BENCHMARK.json <-> run.py

def test_benchmark_json_matches_the_registries():
    benchmark = read_record(REPO_DIR / "BENCHMARK.json")
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    for row in benchmark["workloads"]:
        assert row["why"] == workloads.WORKLOADS[row["name"]].why
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for key, registry in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        rows = {r["name"]: (r["unit"], r["better"]) for r in benchmark[key]}
        assert rows == registry
        assert len(rows) == len(benchmark[key])
    names = list(workloads.WORKLOADS) + list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in metrics.END_TO_END
    assert all(0.0 < r["bound"] <= 0.25 for r in benchmark["end_to_end"])
    assert set(metrics.EXACT) <= set(metrics.PER_LAYER)
    assert benchmark["paths"] == ["benchmarks/e2e"]


def test_smoke_run_emits_every_name_within_a_minute():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60.0, f"smoke took {elapsed:.1f}s"
    ledger = read_record(E2E_DIR / ".work" / "ledger.json")
    assert list(ledger["workloads"]) == list(workloads.WORKLOADS)
    assert {"cpu_count", "cpu_model", "python", "numpy", "blas", "git_rev", "loadavg"} \
        <= set(ledger["host"])
    for name, record in ledger["workloads"].items():
        assert record["failed"] == 0, record["failures"]
        assert list(record["end_to_end"]) == list(metrics.END_TO_END), name
        assert list(record["per_layer"]) == list(metrics.PER_LAYER), name
        assert all(row["median"] > 0.0 for row in record["end_to_end"].values()), name
        for metric in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
            assert re.search(rf"^  {re.escape(metric)} ", proc.stdout, re.M), metric
        trace_file = read_record(E2E_DIR / ".work" / f"trace-{name}.json")
        spans = [dict(zip(("name", "start", "end", "parent", "op"), row))
                 for row in trace_file["spans"]]
        tracing.validate_forest(spans)
        assert record["per_layer"]["trace.spans"]["value"] == len(spans)


def test_single_run_protocol_prints_one_json_object():
    for trace_flag, registry in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(E2E_DIR / "run.py"), "--workload", "c2d-batch4",
             "--seed", "5", "--seconds", "1", "--trace", trace_flag],
            capture_output=True, text=True, timeout=170, check=False,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = parse_record(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {k: unit for k, (unit, _better) in registry.items()}


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the files under ``paths``: no program to
    time, so a non-zero exit and no result line."""
    shutil.copy(REPO_DIR / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "c2d-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
