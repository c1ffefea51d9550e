"""Metric names, units and derivations of the end-to-end ledger.

:data:`END_TO_END` and :data:`PER_LAYER` are the registries
``BENCHMARK.json`` mirrors name for name (a harness self-test pins the
two-way match). End-to-end values come from untraced repeats, per-layer
values from one traced repeat; a per-layer metric a workload does not
exercise reads 0 there (``BENCHMARK.json`` admits numbers only).

Per-layer seconds are *self times* summed over the spans of one name, so
the layers of a run add up to its wall-clock instead of double-counting
nested calls.
"""

from __future__ import annotations

import functools
import math
import statistics
from typing import Any, Sequence

import trace as tracing

#: name -> (unit, better). What a user of the system sees.
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better). Layer = module name under ``repro``.
PER_LAYER: dict[str, tuple[str, str]] = {
    "startup.import_s": ("s", "lower"),
    "io.load_config_s": ("s", "lower"),
    "geometry.build_s": ("s", "lower"),
    "geometry.fsr_count": ("count", "lower"),
    "tracks.generate_s": ("s", "lower"),
    "tracks.laydown_s": ("s", "lower"),
    "tracks.trace2d_s": ("s", "lower"),
    "tracks.chain_s": ("s", "lower"),
    "tracks.stack_s": ("s", "lower"),
    "tracks.link_s": ("s", "lower"),
    "tracks.cache_store_s": ("s", "lower"),
    "tracks.cache_load_s": ("s", "lower"),
    "tracks.cache_bytes": ("bytes", "lower"),
    "tracks.tracks_2d": ("count", "lower"),
    "tracks.tracks_3d": ("count", "lower"),
    "tracks.segments_2d": ("count", "lower"),
    "tracks.segments_3d": ("count", "lower"),
    "perfmodel.segments_3d_ratio": ("ratio", "lower"),
    "perfmodel.memory_ratio": ("ratio", "lower"),
    "trackmgmt.build_s": ("s", "lower"),
    "trackmgmt.regen_s": ("s", "lower"),
    "parallel.build_s": ("s", "lower"),
    "solver.build_s": ("s", "lower"),
    "solver.plan_bytes": ("bytes", "lower"),
    "cmfd.setup_s": ("s", "lower"),
    "solver.source_s": ("s", "lower"),
    "solver.sweep_s": ("s", "lower"),
    "solver.finalize_s": ("s", "lower"),
    "solver.loop_other_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.segments_swept": ("count", "lower"),
    "solver.iter_ms": ("ms", "lower"),
    "solver.ns_per_segment": ("ns", "lower"),
    "solver.mseg_per_s": ("Mseg/s", "higher"),
    "solver.kernel_flops_computed": ("flop", "lower"),
    "solver.kernel_bytes_computed": ("bytes", "lower"),
    "solver.kernel_flop_per_byte": ("flop/byte", "higher"),
    "cmfd.apply_s": ("s", "lower"),
    "cmfd.share": ("ratio", "lower"),
    "cmfd.solves": ("count", "lower"),
    "cmfd.inner_iterations": ("count", "lower"),
    "engine.solve_s": ("s", "lower"),
    "engine.worker_sweep_sum_s": ("s", "lower"),
    "engine.worker_sweep_max_s": ("s", "lower"),
    "engine.worker_exchange_sum_s": ("s", "lower"),
    "engine.worker_exchange_max_s": ("s", "lower"),
    "engine.grant_wait_sum_s": ("s", "lower"),
    "engine.parent_overhead_s": ("s", "lower"),
    "engine.parallel_eff": ("ratio", "higher"),
    "engine.imbalance": ("ratio", "lower"),
    "engine.halo_bytes": ("bytes", "lower"),
    "engine.halo_messages": ("count", "lower"),
    "engine.allreduce_calls": ("count", "lower"),
    "engine.halo_wait_ns": ("ns", "lower"),
    "engine.neighbor_stalls": ("count", "lower"),
    "engine.epochs_overlapped": ("count", "higher"),
    "scenario.states": ("count", "higher"),
    "scenario.sweeps_batched": ("count", "lower"),
    "scenario.laydowns_shared": ("count", "higher"),
    "scenario.state_iter_ms": ("ms", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.cache_hits": ("count", "higher"),
    "serve.hit_ratio": ("ratio", "higher"),
    "serve.lru_evictions": ("count", "lower"),
    "serve.tracking_cache_hits": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.timed_out": ("count", "lower"),
    "serve.req_per_s": ("1/s", "higher"),
    "serve.req_p50_ms": ("ms", "lower"),
    "serve.req_p95_ms": ("ms", "lower"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.queue_wait_p95_ms": ("ms", "lower"),
    "serve.hit_p50_ms": ("ms", "lower"),
    "serve.cold_p50_ms": ("ms", "lower"),
    "serve.shared_p50_ms": ("ms", "lower"),
    "serve.execute_p50_ms": ("ms", "lower"),
    "serve.wire_bytes": ("bytes", "lower"),
    "io.report_write_s": ("s", "lower"),
    "io.report_bytes": ("bytes", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.cpu_over_wall": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "host.slowdown": ("ratio", "lower"),
    "host.noisy_retries": ("count", "lower"),
}

#: Units of durations and of rates: what host-speed normalisation scales.
TIME_UNITS = ("s", "ms", "ns")
RATE_UNITS = ("1/s", "Mseg/s")

#: Per-layer counts that must repeat bit-for-bit between runs of one
#: commit (the A/A check compares them for identity, not within a bound).
EXACT = (
    "geometry.fsr_count",
    "tracks.tracks_2d",
    "tracks.tracks_3d",
    "tracks.segments_2d",
    "tracks.segments_3d",
    "solver.iterations",
    "solver.segments_swept",
    "cmfd.solves",
    "cmfd.inner_iterations",
    "engine.halo_bytes",
    "engine.halo_messages",
    "engine.allreduce_calls",
    "scenario.states",
    "scenario.sweeps_batched",
    "scenario.laydowns_shared",
    "serve.requests",
)

#: On ``serve-mix`` the solver counts are sums over the fresh solves, and
#: two connections racing for one manifest's first touch can add a solve:
#: only these repeat exactly there.
EXACT_SERVE = ("geometry.fsr_count", "serve.requests")

#: Arithmetic per directional segment traversal, polar angle and group in
#: the numpy kernels: (psi - q) * e, psi -= dpsi, weight * dpsi, tally +=.
FLOPS_PER_ITEM = 5
#: float64 streams per item: exp table read, psi read, psi write, dpsi
#: write, dpsi read for the tally reduction.
STREAMS_PER_ITEM = 5


def normalized(values: dict[str, float], registry: dict[str, tuple[str, str]],
               slowdown: float) -> dict[str, float]:
    """``values`` as a host running at the reference speed would have
    measured them: durations divided by ``slowdown``, rates multiplied,
    everything else (counts, bytes, ratios) untouched."""
    result = {}
    for name, value in values.items():
        unit = registry[name][0]
        if unit in TIME_UNITS:
            value = value / slowdown
        elif unit in RATE_UNITS:
            value = value * slowdown
        result[name] = value
    return result


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> dict[str, Any]:
    """Median, quartiles and sample count of one metric's repeats."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


# ---------------------------------------------------------------------------
# Solve workloads (child processes).
# ---------------------------------------------------------------------------

def solve_end_to_end(obs: dict) -> dict[str, float]:
    """The end-to-end metrics of one repeat, summed over its operations."""
    ops = obs["ops"]
    walls = [op["t_exit"] - op["t_launch"] for op in ops]
    setup = solve = 0.0
    for op in ops:
        stamps = op["record"]["stamps"]
        setup += stamps["transport_solving"] - op["t_launch"]
        solve += stamps["output_generation"] - stamps["transport_solving"]
    return {
        "wall_s": sum(walls),
        "setup_s": setup,
        "solve_s": solve,
        "peak_rss_mb": max(op["max_rss_kb"] for op in ops) / 1024.0,
    }


def solve_spans(obs: dict) -> list[dict]:
    """One span list for the repeat: each child's spans tagged with its
    operation, framed by the parent-side ``startup.import`` (launch ->
    imports done) and ``proc.exit`` (last child stamp -> reaped) roots."""
    spans: list[dict] = []
    for index, op in enumerate(obs["ops"]):
        record = op["record"]

        def root(name: str, start: float, end: float) -> None:
            spans.append(
                {"name": name, "start": start, "end": end, "parent": None, "op": index}
            )

        root("startup.import", op["t_launch"], record["t_imported"])
        base = len(spans)
        for span in op["spans"]:
            parent = span["parent"]
            spans.append(
                {
                    "name": span["name"],
                    "start": span["start"],
                    "end": span["end"],
                    "parent": None if parent is None else parent + base,
                    "op": index,
                }
            )
        root("proc.exit", record["t_done"], op["t_exit"])
    return spans


def _stage_sum(obs: dict, stage: str) -> float:
    """A report stage summed over operations (first report of each: the
    states of a batch all carry the batch-wide tracking rows)."""
    return sum(op["reports"][0]["stages"].get(stage, 0.0) for op in obs["ops"])


def _counter_sum(obs: dict, name: str) -> int:
    return sum(
        report["counters"].get(name, 0) for op in obs["ops"] for report in op["reports"]
    )


def solve_layers(obs: dict, e2e: dict[str, float], spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat of a solve workload."""
    by_name = tracing.self_time_by_name(spans)
    last = obs["ops"][-1]["reports"][0]["counters"]
    states = [report for op in obs["ops"] for report in op["reports"]]
    batch = last.get("scenarios_total", 0) > 0
    layers = dict.fromkeys(PER_LAYER, 0.0)

    for metric, span in (
        ("startup.import_s", "startup.import"),
        ("io.load_config_s", "io.load_config"),
        ("geometry.build_s", "geometry.build"),
        ("tracks.generate_s", "tracks.generate"),
        ("tracks.cache_store_s", "tracks.cache_store"),
        ("tracks.cache_load_s", "tracks.cache_load"),
        ("trackmgmt.build_s", "trackmgmt.build"),
        ("trackmgmt.regen_s", "trackmgmt.regen"),
        ("parallel.build_s", "parallel.build"),
        ("solver.build_s", "solver.build"),
        ("cmfd.setup_s", "cmfd.setup"),
        ("solver.source_s", "solver.source"),
        ("solver.sweep_s", "solver.sweep"),
        ("solver.finalize_s", "solver.finalize"),
        ("solver.loop_other_s", "solver.loop"),
        ("cmfd.apply_s", "cmfd.apply"),
        ("io.report_write_s", "io.report_write"),
    ):
        layers[metric] = by_name.get(span, 0.0)
    for phase in ("laydown", "trace2d", "chain", "stack", "link"):
        layers[f"tracks.{phase}_s"] = _stage_sum(obs, f"track_generation/{phase}")
    layers["tracks.cache_bytes"] = obs["cache_bytes"]
    layers["geometry.fsr_count"] = last["fsr_count"]
    for name in ("tracks_2d", "tracks_3d", "segments_2d", "segments_3d"):
        layers[f"tracks.{name}"] = last[name]
    layers["solver.plan_bytes"] = max(op["facts"].get("plan_bytes", 0) for op in obs["ops"])

    iterations = sum(r["results"]["num_iterations"] for r in states)
    swept = _counter_sum(obs, "segments_swept")
    sweeps = last["sweeps_batched"] if batch else iterations
    layers["solver.iterations"] = iterations
    layers["solver.segments_swept"] = swept
    layers["solver.iter_ms"] = 1.0e3 * e2e["solve_s"] / max(sweeps, 1)

    # Engine (forked workers): their timers reach the parent through the
    # report's transport_solving/worker_* rows, not through spans.
    engine_solve = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "engine.solve"
    )
    sweep_sum = _stage_sum(obs, "transport_solving/worker_sweep_sum")
    sweep_max = _stage_sum(obs, "transport_solving/worker_sweep_max")
    if engine_solve > 0.0:
        workers = max(last.get("num_workers", 1), 1)
        exchange_max = _stage_sum(obs, "transport_solving/worker_exchange_max")
        normalize_max = _stage_sum(obs, "transport_solving/worker_normalize_max")
        layers["engine.solve_s"] = engine_solve
        layers["engine.worker_sweep_sum_s"] = sweep_sum
        layers["engine.worker_sweep_max_s"] = sweep_max
        layers["engine.worker_exchange_sum_s"] = _stage_sum(
            obs, "transport_solving/worker_exchange_sum"
        )
        layers["engine.worker_exchange_max_s"] = exchange_max
        layers["engine.grant_wait_sum_s"] = _stage_sum(
            obs, "transport_solving/worker_grant_wait_sum"
        )
        layers["engine.parent_overhead_s"] = (
            engine_solve - sweep_max - exchange_max - normalize_max
        )
        layers["engine.parallel_eff"] = sweep_sum / (workers * engine_solve)
        layers["engine.imbalance"] = sweep_max * workers / sweep_sum if sweep_sum else 0.0
        for name in (
            "halo_bytes", "halo_messages", "allreduce_calls",
            "halo_wait_ns", "neighbor_stalls", "epochs_overlapped",
        ):
            layers[f"engine.{name}"] = last.get(name, 0)

    kernel_s = sweep_sum if engine_solve > 0.0 else layers["solver.sweep_s"]
    if swept and kernel_s > 0.0:
        layers["solver.ns_per_segment"] = 1.0e9 * kernel_s / swept
        layers["solver.mseg_per_s"] = 1.0e-6 * swept / kernel_s
    facts = obs["ops"][-1]["facts"]
    items = swept * max(facts.get("num_polar", 0), 1) * facts.get("num_groups", 0)
    if items:
        # Computed from array sizes, not measured: per item the float64
        # streams above, per traversal one source gather row and one id.
        computed_bytes = 8 * (
            STREAMS_PER_ITEM * items + swept * facts["num_groups"] + swept
        )
        layers["solver.kernel_flops_computed"] = FLOPS_PER_ITEM * items
        layers["solver.kernel_bytes_computed"] = computed_bytes
        layers["solver.kernel_flop_per_byte"] = FLOPS_PER_ITEM * items / computed_bytes

    layers["cmfd.share"] = layers["cmfd.apply_s"] / e2e["solve_s"]
    layers["cmfd.solves"] = _counter_sum(obs, "cmfd_solves")
    layers["cmfd.inner_iterations"] = _counter_sum(obs, "cmfd_iterations")
    if batch:
        layers["scenario.states"] = last["scenarios_total"]
        layers["scenario.sweeps_batched"] = last["sweeps_batched"]
        layers["scenario.laydowns_shared"] = last["laydowns_shared"]
        layers["scenario.state_iter_ms"] = 1.0e3 * e2e["solve_s"] / max(iterations, 1)
    layers["io.report_bytes"] = sum(op["report_bytes"] for op in obs["ops"])
    layers["proc.cpu_s"] = sum(op["cpu_s"] for op in obs["ops"])
    layers["proc.cpu_over_wall"] = layers["proc.cpu_s"] / e2e["wall_s"]
    layers["trace.spans"] = len(spans)
    layers["trace.unattributed_frac"] = 1.0 - tracing.covered_seconds(spans) / e2e["wall_s"]
    return layers


@functools.lru_cache(maxsize=None)
def _segment_model(config_path):
    """Eq. 4 calibrated on the workload's geometry traced at twice both
    spacings (cached: a run may reduce several traced repeats)."""
    from repro.io.config import load_config
    from repro.perfmodel import SegmentRatioModel
    from repro.runtime.antmoc import GEOMETRY_BUILDERS
    from repro.tracks.generator import TrackGenerator3D

    config = load_config(config_path)
    tracking = config.tracking
    sample = TrackGenerator3D(
        GEOMETRY_BUILDERS[config.geometry](),
        num_azim=tracking.num_azim,
        azim_spacing=2.0 * tracking.azim_spacing,
        polar_spacing=2.0 * tracking.polar_spacing,
        num_polar=tracking.num_polar,
    ).generate()
    return SegmentRatioModel.calibrate(
        sample.num_tracks, sample.num_segments,
        sample.num_tracks_3d, sample.trace_all_3d().num_segments,
    )


def perfmodel_residuals(config_path, layers: dict[str, float],
                        peak_rss_mb: float) -> dict[str, float]:
    """Measured size ÷ what ``repro.perfmodel`` predicts for it.

    ``perfmodel.memory_ratio`` is peak RSS over Eq. 5 evaluated at the
    measured track/segment/FSR counts; ``perfmodel.segments_3d_ratio``
    (3D workloads) is the measured 3D segment count over Eq. 4. Computed
    in the parent, outside every timed region.
    """
    from repro.perfmodel import MemoryModel

    predicted_bytes = MemoryModel().total_bytes(
        num_2d_tracks=int(layers["tracks.tracks_2d"]),
        num_3d_tracks=int(layers["tracks.tracks_3d"]),
        num_2d_segments=int(layers["tracks.segments_2d"]),
        num_3d_segments=int(layers["tracks.segments_3d"]),
        num_fsrs=int(layers["geometry.fsr_count"]),
    )
    residuals = {"perfmodel.memory_ratio": peak_rss_mb * 1024.0 * 1024.0 / predicted_bytes}
    if layers["tracks.tracks_3d"]:
        predicted = _segment_model(config_path).predict_3d(int(layers["tracks.tracks_3d"]))
        residuals["perfmodel.segments_3d_ratio"] = layers["tracks.segments_3d"] / predicted
    return residuals
