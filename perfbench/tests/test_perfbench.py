"""Tests of the benchmark's own arithmetic, checks and generation."""

from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path

import pytest

from perfbench import calibrate, check, measure, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def span(span_id, parent, name, start, end, extra=None):
    return spans.Span((1, span_id), (1, parent) if parent else None, 0, name,
                      start, end, extra)


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        span(1, None, "bmc.check", 0.0, 10.0),
        span(2, 1, "sat.solve", 1.0, 4.0),
        span(3, 1, "sat.solve", 3.0, 6.0),     # overlaps span 2 (other thread)
        span(4, 1, "kernel.run", 9.0, 12.0),   # runs past its parent's end
        span(5, 2, "kernel.run", 1.5, 2.5),    # grandchild: not subtracted
    ]
    selfs = spans.self_times(tree)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 5)] == pytest.approx(1.0)


def test_stage_self_time_subtracts_only_nested_stages():
    tree = [
        span(1, None, "api.stage.level1", 0.0, 10.0),
        span(2, 1, "api.stage.reference", 0.0, 2.0),
        span(3, 1, "kernel.run", 3.0, 9.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[(1, 1)] == pytest.approx(8.0)
    assert selfs[(1, 3)] == pytest.approx(6.0)


def test_covered_merges_and_clips():
    assert spans.covered((0.0, 10.0), []) == 0.0
    assert spans.covered((0.0, 10.0), [(2, 3), (1, 2.5), (8, 20)]) == \
        pytest.approx(2.0 + 2.0)
    assert spans.covered((5.0, 6.0), [(0, 1), (7, 9)]) == 0.0


def test_per_layer_normalises_by_traced_ops():
    tree = [
        span(1, None, "bmc.check", 0.0, 3.0),
        span(2, 1, "sat.solve", 1.0, 2.0,
             {"conflicts": 4, "decisions": 6, "propagations": 8}),
        span(3, None, "pcc.run", 3.0, 5.0, {"mutants": 10, "killed": 4}),
    ]
    ops = [measure.Outcome(0, 1.0, work={"kernel.activations": 3}),
           measure.Outcome(2, 1.0, work={"kernel.activations": 5})]
    metrics = measure.per_layer(tree, ops, 1, (4.0, 2), (2.0, 2))
    assert metrics["bmc.encode_s"] == pytest.approx(1.0)
    assert metrics["sat.solve_s"] == pytest.approx(0.5)
    assert metrics["sat.conflicts"] == pytest.approx(2.0)
    assert metrics["pcc.kill_ratio"] == pytest.approx(0.4)
    assert metrics["trace.traced_ops_per_s"] == pytest.approx(0.5)
    assert metrics["trace.untraced_ops_per_s"] == pytest.approx(1.0)
    assert metrics["kernel.activations"] == pytest.approx(4.0)
    assert {name for name, _unit in measure.PER_LAYER} == set(metrics)


# -- tail percentile ---------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert measure.tail(values) == (90.0, 90.0, 10)
    forty = [float(v) for v in range(40, 0, -1)]
    assert measure.tail(forty) == (30.0, 75.0, 10)


def test_tail_keeps_a_quarter_beyond_it_below_forty_samples():
    eleven = [5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0]
    assert measure.tail(eleven) == (9.0, pytest.approx(900 / 11), 2)
    assert measure.tail([float(v) for v in range(39)]) == \
        (29.0, pytest.approx(3000 / 39), 9)
    assert measure.tail([6.0, 4.0, 5.0, 7.0]) == (6.0, 75.0, 1)


def test_tail_is_the_maximum_below_four_samples():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        measure.tail([])


# -- host-speed calibration --------------------------------------------------------


def test_a_calibration_sample_checks_its_result():
    start, wall, cpu, units = calibrate.sample(2, 7)
    assert wall > 0 and cpu > 0 and units == 2


def test_factors_are_the_reference_over_the_mean_unit():
    reference = calibrate.REFERENCE_S
    calibrator = calibrate.Calibrator()
    calibrator.samples = [(0.0, 8 * reference, 4 * reference, 8),
                          (1.0, 3 * reference, reference, 1),
                          (2.0, reference, reference, 1)]
    assert calibrator.factors() == (pytest.approx(10 / 12),
                                    pytest.approx(10 / 6))
    assert calibrator.factors(1, 3) == (pytest.approx(0.5),
                                        pytest.approx(1.0))
    # an op during which no sample was taken gets the run's factors
    assert calibrator.factors(3, 3) == calibrator.factors()
    assert calibrator.spent(1, 3) == pytest.approx((4 * reference,
                                                    2 * reference))
    assert calibrator.spent(0, 3, since=0.5, until=1.5) == \
        pytest.approx((3 * reference, reference))
    with pytest.raises(ValueError):
        calibrate.Calibrator().factors()


def test_the_timer_samples_while_ops_run_and_then_stops():
    import signal
    import time

    calibrator = calibrate.Calibrator()
    before = signal.getsignal(signal.SIGALRM)
    with calibrator.running():
        end = time.perf_counter() + 4 * calibrate.PERIOD_S
        while time.perf_counter() < end:
            pass
    taken = len(calibrator.samples)
    assert taken >= 2
    assert all(units == 1 for *_, units in calibrator.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    time.sleep(2 * calibrate.PERIOD_S)
    assert len(calibrator.samples) == taken


def test_timed_scales_each_op_by_its_own_factors():
    ops = [measure.Outcome(0, 1.0, wall=1.5, cpu=1.0, wall_factor=2.0),
           measure.Outcome(0, 2.0, wall=2.0, cpu=2.0, wall_factor=2.0),
           measure.Outcome(0, None, "failed", wall=0.5, cpu=0.5,
                           wall_factor=0.5, cpu_factor=0.5),
           measure.Outcome(0, 4.0, wall=4.0, cpu=3.5, wall_factor=0.5,
                           cpu_factor=0.5)]
    raw = measure.timed(ops, 100.0, scaled=False)
    scaled = measure.timed(ops, 100.0)
    assert raw["ops_per_s"] == pytest.approx(3 / 8.0)
    assert raw["cpu_s_per_op"] == pytest.approx(7.0 / 4)
    assert scaled["ops_per_s"] == pytest.approx(3 / (7.0 + 2.25))
    assert scaled["op_p50_s"] == pytest.approx(2.0)  # of 2.0, 4.0, 2.0
    assert scaled["cpu_s_per_op"] == pytest.approx((3.0 + 2.0) / 4)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 100.0


# -- the digest check --------------------------------------------------------------


@pytest.fixture(scope="module")
def service_outcome():
    from repro.api import Campaign, CampaignSpec

    spec = CampaignSpec.from_dict(workloads.service_spec(1))
    return Campaign(spec).run().to_dict()


def test_recorded_result_verifies(service_outcome):
    assert check.verify(service_outcome, check.load_expected()) == (None, True)


def test_one_field_perturbation_fails_the_digest(service_outcome):
    expected = check.load_expected()
    perturbed = copy.deepcopy(service_outcome)
    perturbed["stages"]["level3"]["value"]["metrics"]["elapsed_ps"] += 1
    reason, sim_ok = check.verify(perturbed, expected)
    assert reason == "result digest differs from the recorded one"
    assert not sim_ok
    renamed = copy.deepcopy(service_outcome)
    renamed["accuracy"] = 0.5
    assert check.verify(renamed, expected)[0] == \
        "result digest differs from the recorded one"


def test_volatile_keys_do_not_enter_the_digest(service_outcome):
    moved = copy.deepcopy(service_outcome)
    moved["wall_seconds"] += 1.0
    assert check.verify(moved, check.load_expected()) == (None, True)


def test_failed_gate_fails_the_op(service_outcome):
    gated = copy.deepcopy(service_outcome)
    gated["gates"]["3"] = False
    assert check.verify(gated, check.load_expected())[0] == \
        "level gates failed: ['3']"


# -- seeded generation -------------------------------------------------------------

GENERATORS = [workloads.flow_rounds, workloads.explore_rounds,
              workloads.pcc_rounds, workloads.service_rounds]


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_generates_identical_ops(generate):
    first = list(itertools.islice(generate(7), 6))
    second = list(itertools.islice(generate(7), 6))
    assert json.dumps(first) == json.dumps(second)


def test_seed_changes_the_service_mix():
    first = list(itertools.islice(workloads.service_rounds(1), 3))
    second = list(itertools.islice(workloads.service_rounds(2), 3))
    assert first != second


def test_service_blocks_are_three_cold_in_ten():
    blocks = list(itertools.islice(workloads.service_rounds(3), 20))
    assert blocks[0][0]["kind"] == "cold"
    seen = set()
    for block in blocks:
        kinds = [op["kind"] for op in block]
        assert kinds.count("cold") == workloads.SERVICE_COLD_PER_BLOCK
        for op in block:
            seed = op["spec"]["seed"]
            if op["kind"] == "cold":
                assert seed not in seen
                seen.add(seed)
            else:
                assert seed in seen


def test_every_generated_op_has_a_recorded_result():
    expected = check.load_expected()
    specs = (workloads.flow_specs() + workloads.pcc_specs()
             + workloads.explore_point_specs()
             + [workloads.service_spec(s) for s in workloads.SERVICE_SEEDS])
    assert {check.spec_key(spec) for spec in specs} == set(expected)


def test_an_explore_op_is_one_sweep_on_the_benchmark_clock(tmp_path):
    client = workloads.ExploreClient(1, tmp_path)
    item = {"base": workloads.spec_doc(name="explore-tiny", workload="facerec",
                                       identities=2, poses=1, size=32,
                                       frames=1, levels=[1, 2, 3]),
            "grid": {"cpu": ["ARM7TDMI", "ARM9TDMI"]}}
    result = client.execute(item)
    assert result.error is None
    assert len(result.docs) == 2
    assert result.latency >= sum(doc["wall_seconds"] for doc in result.docs)


def test_explore_grid_order_does_not_depend_on_the_seed():
    def grids(seed):
        first = next(workloads.explore_rounds(seed))
        return sorted((item["base"]["name"], item["grid"]) for item in first)

    assert grids(1) == grids(2)


# -- wrappers and the benchmark definition -----------------------------------------


def test_tracer_restores_every_original():
    from repro.api.session import Session
    from repro.flow import level2, level3

    originals = (Session.run, level2.check_deadline, level3.create_engine)
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        assert Session.run is not originals[0]
        assert level3.create_engine is not originals[2]
    finally:
        tracer.uninstall()
    assert (Session.run, level2.check_deadline, level3.create_engine) == \
        originals


def test_benchmark_json_matches_the_metrics_reported():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == \
        measure.END_TO_END
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == \
        measure.PER_LAYER
    assert [w["name"] for w in definition["workloads"]] == \
        list(workloads.CLIENTS)
