"""Every solve path emits a schema-versioned, self-consistent run report."""

import pytest

from repro.observability import RunReport, SCHEMA_VERSION
from repro.observability.spans import SpanRecorder
from repro.runtime import AntMocApplication, StageName
from tests.observability.conftest import mini_2d_config, mini_3d_config

CASES = {
    "2d-single": lambda: mini_2d_config(),
    "2d-decomposed": lambda: mini_2d_config(decomposition={"nx": 3, "ny": 3}),
    "3d-exp": lambda: mini_3d_config(),
    "3d-otf": lambda: mini_3d_config(
        solver={"max_iterations": 3, "keff_tolerance": 1e-14,
                "source_tolerance": 1e-14, "storage_method": "OTF"},
    ),
    "3d-z2": lambda: mini_3d_config(decomposition={"nz": 2}),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case_result(request):
    return request.param, AntMocApplication(CASES[request.param]()).run()


class TestReportEmission:
    def test_report_attached_and_versioned(self, case_result):
        _, result = case_result
        report = result.run_report
        assert report is not None
        assert report.schema_version == SCHEMA_VERSION
        report.validate()

    def test_report_round_trips_through_dict(self, case_result):
        _, result = case_result
        rebuilt = RunReport.from_dict(result.run_report.to_dict())
        assert rebuilt.results.keff.hex() == float(result.keff).hex()
        assert rebuilt.counters == result.run_report.counters

    def test_stages_cover_the_pipeline(self, case_result):
        _, result = case_result
        top_level = {n for n in result.run_report.stages if "/" not in n}
        assert top_level == {s.value for s in StageName}

    def test_workload_counters_populated(self, case_result):
        name, result = case_result
        counters = result.run_report.counters
        assert counters["fsr_count"] > 0
        assert counters["iteration_count"] == result.num_iterations
        assert counters["tracks_2d"] > 0
        assert counters["segments_2d"] > 0
        if name.startswith("3d"):
            assert counters["tracks_3d"] > 0
            assert counters["segments_3d"] > 0
            swept = counters["segments_3d"]
        else:
            assert counters["tracks_3d"] == 0
            swept = counters["segments_2d"]
        assert counters["segments_swept"] == 2 * swept * result.num_iterations

    def test_decomposed_runs_report_comm(self, case_result):
        name, result = case_result
        counters = result.run_report.counters
        if name in ("2d-decomposed", "3d-z2"):
            assert counters["num_domains"] > 1
            assert counters["halo_bytes"] > 0
            assert counters["allreduce_calls"] > 0
        else:
            assert counters["num_domains"] == 1

    def test_manifest_records_selections(self, case_result):
        name, result = case_result
        manifest = result.run_report.manifest
        assert manifest.geometry == ("c5g7-mini" if name.startswith("2d") else "c5g7-3d-mini")
        assert len(manifest.config_hash) == 64
        if name == "3d-otf":
            assert manifest.storage_method == "OTF"


# ------------------------------------------------------ R_REPORT_KERNEL_PHASES

KERNEL_PHASES = ("gather", "lockstep", "reduce")
CMFD_ON = {"max_iterations": 5, "keff_tolerance": 1e-14, "source_tolerance": 1e-14,
           "cmfd": {"enabled": True}}


def _scenario_report(**solver):
    from repro.scenario import run_scenario_batch
    from tests.scenario.conftest import batch_config

    batch = run_scenario_batch(batch_config(solver=solver), mode="batched")
    assert batch.batched
    return batch.states[-1].run_report


@pytest.mark.parametrize(
    "case",
    ["2d-single", "3d-exp", "3d-otf", "scenario-batch", "2d-cmfd", "scenario-batch-cmfd"],
)
def test_r_report_kernel_phases(case):
    """DESIGN.md R_REPORT_KERNEL_PHASES: the sweep row of a single-domain
    or batched numpy solve splits into gather / lockstep / reduce rows (and
    a fold row with CMFD on) that fit inside it, and the span tree still
    validates."""
    if case == "scenario-batch":
        report = _scenario_report()
    elif case == "scenario-batch-cmfd":
        report = _scenario_report(**CMFD_ON)
    elif case == "2d-cmfd":
        report = AntMocApplication(mini_2d_config(solver=CMFD_ON)).run().run_report
    else:
        report = AntMocApplication(CASES[case]()).run().run_report
    phases = KERNEL_PHASES + (("fold",) if case.endswith("cmfd") else ())
    sweep = f"{StageName.TRANSPORT_SOLVING.value}/sweep"
    rows = [report.stages[f"{sweep}/{phase}"] for phase in phases]
    assert all(seconds > 0.0 for seconds in rows)
    assert sum(rows) <= report.stages[sweep]
    report.validate()
    recorder = SpanRecorder()
    recorder.roots = report.spans
    recorder.validate()
    node = recorder.find(sweep)
    assert [child.name for child in node.children] == list(phases)
