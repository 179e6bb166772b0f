"""Tests of the benchmark's own logic: span arithmetic, verdicts, wrappers.

Run with `python -m pytest bench/test_bench.py`; lorentzgeo is imported
from the checkout's `src/`.
"""

import json
import sys
from pathlib import Path

import pytest

import run
from tracing import Span, Tracer, accounting_gap, layer_totals, self_times

sys.path.insert(0, str(run.SRC))


def _tree():
    # root [0, 10] with children A [1, 4] and B [5, 6]; A has child C [2, 3]
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("A", 1.0, 4.0, 0, 0),
        Span("C", 2.0, 3.0, 1, 0, {"n": 5}),
        Span("B", 5.0, 6.0, 0, 0),
    ]


def test_self_times_subtract_children():
    spans = _tree()
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].seconds
    assert accounting_gap(spans, 10.0) == 0.0
    assert accounting_gap(spans, 10.5) == 0.5


def test_self_times_count_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("A", 1.0, 5.0, 0, 0), Span("B", 3.0, 7.0, 0, 0)]
    assert self_times(spans)[0] == 4.0


def test_layer_totals_report_zero_for_uncalled_layers():
    totals = layer_totals(_tree(), {"root": {}, "A": {}, "B": {}, "C": {"n": None}, "D": {"n": None}})
    assert totals["A"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["C"]["n"] == 5
    assert totals["D"] == {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0}


def test_layer_metrics_cover_every_per_layer_metric_with_zeros():
    pass_metrics = run.layer_metrics([], "pass")
    setup_metrics = run.layer_metrics([], "setup")
    assert set(pass_metrics) | set(setup_metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert not set(pass_metrics) & set(setup_metrics)
    assert all(v == 0 for v in {**pass_metrics, **setup_metrics}.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def _commands():
    return {c.label: c for w in run.WORKLOADS.values() for c in w.commands}


def _reports():
    return {
        "curvature-below-tripod": {"checks": [{"name": "curvature-below-by-0", "status": "FAIL", "witness": {"margin": -0.2}, "new_key": 1}]},
        "curvature-above-grid21": {"checks": [{"name": "curvature-above-by-0", "status": "PASS", "max_slack": 1e-12, "n_triangles": run.GRID_CAP, "witness": None}]},
        "axioms-grid31": {"checks": [{"name": "axioms", "status": "PASS", "counts": {}}]},
        "lines-egrid": {"checks": [{"name": "line[0]", "status": "PASS"}, {"name": "line[1]", "status": "PASS"}]},
        "split-egrid": {"checks": [{"name": "classes", "status": "PASS"}, {"name": "embedding", "status": "PASS"}]},
        "roundtrip-egrid": {"checks": [{"name": "roundtrip", "status": "PASS", "deviation": 0.1, "step": 0.25}]},
    }


def test_expected_reports_pass_every_verdict():
    commands = _commands()
    assert set(commands) == set(_reports())
    for label, report in _reports().items():
        assert run.evaluate(commands[label], commands[label].expect_rc, report) == []


@pytest.mark.parametrize(
    "label, doctor",
    [
        ("curvature-below-tripod", lambda c: c.update(status="PASS")),
        ("curvature-below-tripod", lambda c: c["witness"].update(margin=0.0)),
        ("curvature-below-tripod", lambda c: c.update(witness=None)),
        ("curvature-above-grid21", lambda c: c.update(status="FAIL")),
        ("curvature-above-grid21", lambda c: c.update(max_slack=1e-6)),
        ("curvature-above-grid21", lambda c: c.update(n_triangles=run.GRID_CAP - 1)),
        ("axioms-grid31", lambda c: c.update(counts={"push-up": 3})),
        ("lines-egrid", lambda c: c.update(status="FAIL")),
        ("split-egrid", lambda c: c.update(status="SKIP")),
        ("roundtrip-egrid", lambda c: c.update(deviation=0.3)),
        ("roundtrip-egrid", lambda c: c.pop("step")),
    ],
)
def test_doctored_report_counts_as_failed(label, doctor):
    report = _reports()[label]
    doctor(report["checks"][0])
    cmd = _commands()[label]
    assert run.evaluate(cmd, cmd.expect_rc, report)


def test_unexpected_exit_code_counts_as_failed():
    cmd = _commands()["curvature-below-tripod"]
    assert run.evaluate(cmd, 0, _reports()["curvature-below-tripod"])


def test_wrappers_trace_imported_names_and_restore_originals():
    import lorentzgeo.cli
    from lorentzgeo import modelspace, sampled

    assert Path(modelspace.__file__).resolve().is_relative_to(run.SRC)
    original = modelspace.angle_from_sides
    tracer = Tracer("lorentzgeo", run.TRACED)
    with tracer:
        assert sampled.angle_from_sides is modelspace.angle_from_sides is not original
        assert lorentzgeo.cli.main.__wrapped__ is not None
        sampled.angle_from_sides(0.0, 1.0, 1.0, 2.5, +1)
    spans = tracer.take()
    assert [s.name for s in spans] == ["modelspace.angle_from_sides", "modelspace.angle_from_sides_arr"]
    assert spans[1].parent == 0 and spans[1].call == 0
    assert sampled.angle_from_sides is modelspace.angle_from_sides is original
    for name in run.TRACED:
        module, attr = name.rsplit(".", 1)
        assert not hasattr(getattr(sys.modules[f"lorentzgeo.{module}"], attr), "__wrapped__")


def test_missing_traced_name_is_an_error_and_leaves_nothing_wrapped():
    from lorentzgeo import modelspace

    original = modelspace.hinge_tau_arr
    with pytest.raises(LookupError):
        with Tracer("lorentzgeo", {"modelspace.hinge_tau_arr": {}, "modelspace.no_such_function": {}}):
            pass
    assert modelspace.hinge_tau_arr is original
