"""Tests of the benchmark's own logic.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy

import pytest

from perfbench import spans
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    check_outputs,
    invariant_errors,
    reference_errors,
)


class FakeClock:
    """Reads whatever time the test last set."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested(clock):
    tr = spans.Tracer(clock)
    with tr.span("harness.run"):                 # 0 .. 10
        clock.now = 1.0
        with tr.span("harness.point", point=4):  # 1 .. 9
            clock.now = 2.0
            with tr.span("gmi.probe"):           # 2 .. 7
                clock.now = 3.0
                with tr.span("demapper.llrs"):   # 3 .. 5
                    clock.now = 5.0
                clock.now = 7.0
            with tr.span("demapper.llrs"):       # 7 .. 8
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    return tr


def test_self_time_subtracts_children():
    tr = _nested(FakeClock())
    assert spans.self_times(tr.spans) == [2.0, 2.0, 3.0, 2.0, 1.0]
    layers = spans.layer_self_times(tr.spans)
    assert layers["harness"] == 4.0
    assert layers["gmi"] == 3.0
    assert layers["demapper"] == 3.0
    assert sum(layers.values()) == tr.spans[0].duration


def test_parent_and_point_id_are_inherited():
    tr = _nested(FakeClock())
    assert [s.parent for s in tr.spans] == [None, 0, 1, 2, 1]
    assert [s.point for s in tr.spans] == [None, 4, 4, 4, 4]


def test_overlapping_children_are_counted_once():
    parent = spans.Span("harness.run", 0.0, 10.0)
    kids = [spans.Span("gmi.probe", 1.0, 5.0, parent=0),
            spans.Span("gmi.probe", 3.0, 6.0, parent=0),
            spans.Span("gmi.probe", 8.0, 12.0, parent=0)]
    assert spans.self_times([parent] + kids)[0] == 10.0 - 5.0 - 2.0


def test_unattributed_time_is_wall_minus_self_times():
    tr = _nested(FakeClock())
    m = spans.layer_metrics(tr.spans, wall_s=10.5, n_codewords=1)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["demapper.llrs_calls"] == 2
    assert m["harness.point_s_max"] == 8.0


def test_probes_are_counted_through_the_wrapped_margin():
    from relaycm.gmi import required_snr2_db

    calls = []

    def margin(db):
        calls.append(db)
        return db - 7.3

    tr = spans.Tracer()
    wrapped = spans.counting_bisection(tr, required_snr2_db)
    got = wrapped(margin, -2.0, 30.0, 0.05)
    assert got == required_snr2_db(lambda db: db - 7.3, -2.0, 30.0, 0.05)
    probes = [s for s in tr.spans if s.name == "gmi.probe"]
    assert [s.attrs["snr2_db"] for s in probes] == calls
    assert all(tr.spans[s.parent].name == "gmi.bisection" for s in probes)
    m = spans.layer_metrics(tr.spans, wall_s=1.0, n_codewords=1)
    assert m["gmi.bisections"] == 1
    assert m["gmi.probes"] == len(calls) == m["gmi.probes_per_bisection"]
    assert m["gmi.reachable_frac"] == 1.0


def test_unreachable_bisection_counts_its_single_probe():
    from relaycm.gmi import required_snr2_db

    tr = spans.Tracer()
    got = spans.counting_bisection(tr, required_snr2_db)(lambda db: -1.0)
    assert got == float("inf")
    m = spans.layer_metrics(tr.spans, wall_s=1.0, n_codewords=1)
    assert (m["gmi.probes"], m["gmi.reachable_frac"]) == (1, 0.0)


def test_installed_wrappers_are_removed_afterwards():
    from relaycm import demapper, gmi, harness

    before = (harness.decode, harness.required_snr2_db, gmi.nearest_index,
              demapper.Demapper.llrs)
    with spans.installed(spans.Tracer()):
        assert harness.decode.__wrapped__ is before[0]
        assert demapper.Demapper.llrs is not before[3]
    assert (harness.decode, harness.required_snr2_db, gmi.nearest_index,
            demapper.Demapper.llrs) == before


REGION = {"kind": "snr_region", "contours": [
    {"variant": "hd_matched", "f": 0.0, "monotone": True, "points": [{"x": 17.0, "y": 10.2}]},
    {"variant": "scale", "f": 0.0, "monotone": True, "points": [{"x": 17.0, "y": 11.2}]},
]}
REACH = {"kind": "distance_contour", "contours": [{"variant": "hd_matched", "f": 0.5, "points": [
    {"x": 0.0, "y": 12.0, "req_db": 13.1, "total_km": 960.0},
    {"x": 2.0, "y": 12.0, "req_db": 13.2, "total_km": 1120.0},
]}]}
CODED = {"kind": "coded_contour", "contours": [{
    "variant": "hd_matched", "coupling": 3, "strategy": "interleaved", "f": 0.5,
    "points": [{"x": 16.0, "y": 11.3, "ber": 0.0, "realized_f": 0.5}]}]}


def test_invariants_pass_on_good_records():
    assert invariant_errors(REGION, WORKLOADS["region-qam16"]["ini"]) == []
    assert invariant_errors(REACH, WORKLOADS["reach-qam32-mc"]["ini"]) == []
    assert invariant_errors(CODED, WORKLOADS["coded-sc64"]["ini"]) == []


def test_invariants_fail_on_bad_records():
    region = copy.deepcopy(REGION)
    region["contours"][0]["points"][0]["y"] = 11.3
    assert invariant_errors(region, WORKLOADS["region-qam16"]["ini"])
    reach = copy.deepcopy(REACH)
    reach["contours"][0]["points"][1]["total_km"] = 880.0
    assert invariant_errors(reach, WORKLOADS["reach-qam32-mc"]["ini"])
    coded = copy.deepcopy(CODED)
    coded["contours"][0]["points"][0]["ber"] = 2e-4
    assert invariant_errors(coded, WORKLOADS["coded-sc64"]["ini"])


def test_reference_comparison():
    ref = {"region-qam16": [["f=0.0 variant=hd_matched", 17.0, 10.22],
                            ["f=0.0 variant=scale", 17.0, 11.2]]}
    assert reference_errors("region-qam16", REGION, ref) == []
    moved = copy.deepcopy(REGION)
    moved["contours"][1]["points"][0]["y"] = 11.3
    assert reference_errors("region-qam16", moved, ref)
    lost = copy.deepcopy(REGION)
    lost["contours"][1]["points"][0]["y"] = None
    assert "reachability" in reference_errors("region-qam16", lost, ref)[0]


def test_check_outputs_reads_the_record(tmp_path):
    import json

    assert check_outputs("coded-sc64", tmp_path, DEFAULT_SEED, {})[0].startswith("no readable")
    (tmp_path / "coded_record.json").write_text(json.dumps(CODED))
    ref = {"coded-sc64": [["coupling=3 f=0.5 strategy=interleaved variant=hd_matched", 16.0, 11.3]]}
    assert check_outputs("coded-sc64", tmp_path, DEFAULT_SEED, ref) == []
    assert check_outputs("coded-sc64", tmp_path, DEFAULT_SEED + 1, {}) == []
