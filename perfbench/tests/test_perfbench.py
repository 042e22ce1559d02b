"""Tests of the benchmark's own machinery; they run no timed workload."""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import check  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _subset(workload: str) -> list[dict]:
    pool = workloads.build(workload, 7)
    if workload == "zeros_enumerate":
        return [dict(entry, n_max=25) for entry in pool[:2]]
    return pool[:40]


def test_traced_and_untraced_runs_return_identical_outputs():
    modules = workloads.load_package()
    for workload in workloads.WORKLOADS:
        pool = _subset(workload)
        untraced = [workloads.run_op(workload, modules, e) for e in pool]
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            traced = [workloads.run_op(workload, modules, e) for e in pool]
        finally:
            tracer.uninstall()
        assert traced == untraced, workload
        assert len(tracer) > len(pool), workload
    assert modules["zerofinder"].detection_value is \
        modules["besseval"].detection_value
    assert not hasattr(modules["cli"].main, "__wrapped__")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 30] and b [40, 70]; a holds [12, 20] and
    # [22, 25]; b holds [45, 60], which holds [50, 52].
    start = [0, 10, 12, 22, 40, 45, 50]
    end = [100, 30, 20, 25, 70, 60, 52]
    parent = [-1, 0, 1, 1, 0, 4, 5]
    assert list(spans.self_times(start, end, parent)) == \
        [50, 9, 8, 3, 15, 13, 2]


def test_detection_calls_are_counted_per_refine_call():
    tracer = spans.Tracer()
    refine = spans.FUNCTIONS.index("zerofinder.refine_zero")
    detection = spans.FUNCTIONS.index("besseval.detection_value")
    series = spans.FUNCTIONS.index("besseval.series_sum")
    rows = [(refine, -1, 0, 100), (detection, 0, 10, 20),
            (series, 1, 12, 18), (detection, 0, 30, 40),
            (detection, -1, 200, 210)]
    for function, up, begin, finish in rows:
        tracer.function.append(function)
        tracer.op.append(0)
        tracer.parent.append(up)
        tracer.start.append(begin)
        tracer.end.append(finish)
    metrics = spans.layer_metrics(tracer, ops=1, busy_ns=210)
    assert metrics["zerofinder.refine_zero.detection_calls_per_call"] == 2
    assert metrics["besseval.detection_value.calls_per_op"] == 3
    assert metrics["zerofinder.refine_zero.self_us_per_call"] == 0.08


def test_a_wrong_reference_value_is_counted_as_a_failed_operation():
    modules = workloads.load_package()
    pool = workloads.build("eval_scan", 3)[:6]
    expected = check.expected_values("eval_scan", pool)
    outputs = [[i, workloads.run_op("eval_scan", modules, entry), 3]
               for i, entry in enumerate(pool)]
    assert run.count_failures("eval_scan", pool, expected, outputs)[0] == 0
    expected[4] = expected[4] * (1 + 1e-6)
    failed, examples = run.count_failures(
        "eval_scan", pool, expected, outputs)
    assert (failed, len(examples)) == (3, 1)
    result = {"ops": 18, "ops_per_s": 1.0, "latency_ns": [1000] * 18,
              "peak_rss_mib": 1.0}
    report = run.end_to_end(result, failed, [0.1])
    assert report["failed_op_ratio"][0] == 3 / 18
    assert report["ok_op_ratio"][0] == 15 / 18


def test_documented_defects_go_to_the_probe_not_the_pool():
    for documented in ({"command": "table", "table": 1, "x": 10.0},
                       {"command": "table", "table": 2, "x": 20.0},
                       {"command": "eval", "kind": "K", "nu": 5.0, "x": 6.0},
                       {"kind": "G", "nu": 5.0, "x": 10.5}):
        assert workloads.in_documented_defect(documented)
    # L is never computed by cancellation, and table 2 at x = 10 succeeds.
    for new in ({"kind": "L", "nu": 5.0, "x": 20.0},
                {"command": "eval", "kind": "F", "nu": 5.0, "x": 9.5},
                {"command": "eval", "kind": "K", "nu": 7.0, "x": 6.0},
                {"command": "table", "table": 2, "x": 10.0},
                {"command": "zeros", "kind": "K", "x": 1.0}):
        assert not workloads.in_documented_defect(new)
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            pool = workloads.build(workload, seed)
            probe = workloads.defect_probe(workload, seed)
            assert not any(map(workloads.in_documented_defect, pool))
            assert all(map(workloads.in_documented_defect, probe))
            assert bool(probe) == (workload != "zeros_enumerate")
    assert len(workloads.build("eval_scan", 1)) == 400
    assert len(workloads.build("cli_mix", 1)) == 200


def test_the_probe_counts_each_failing_input():
    probe = workloads.defect_probe("cli_mix", 4)
    modules = workloads.load_package()
    outputs = [workloads.run_op("cli_mix", modules, e) for e in probe]
    failing = run.probe_failures("cli_mix", 4, outputs)
    outputs[0] = ("error", "RuntimeError")
    assert failing <= run.probe_failures("cli_mix", 4, outputs) <= \
        failing + 1
    assert run.probe_failures("cli_mix", 4, [("error", "E")] * len(probe)) \
        == len(probe)


def test_tail_percentile_needs_ten_samples_beyond_it():
    # 91 samples: p90 = 81, and only 82..90 lie beyond it.
    assert measure.tail_percentile(list(range(91)), 0.9) is None
    assert measure.tail_percentile(list(range(92)), 0.9) == 81.9
    result = {"ops": 50, "ops_per_s": 1.0, "peak_rss_mib": 1.0,
              "latency_ns": [1000 * i for i in range(50)]}
    report = run.end_to_end(result, 0, [0.1])
    assert report["latency_p90_ms"][0] is None
    assert report["latency_p50_ms"][0] == 0.0245


def test_closed_loop_scales_time_by_the_measured_speed():
    modules = workloads.load_package()
    pool = workloads.build("eval_scan", 5)[:50]
    result = worker.closed_loop("eval_scan", modules, pool, 0.05,
                                random.Random(1))
    assert result["ops"] % len(pool) == 0 and result["ops"] >= len(pool)
    assert len(result["latency_ns"]) == result["ops"]
    assert abs(result["ops_per_s"] * result["speed"]
               - result["wall_ops_per_s"]) < 1e-9 * result["wall_ops_per_s"]
    speed = measure.Speed()
    assert speed.factor == measure.CAL_REFERENCE_NS / measure.median(
        list(speed._recent))


def test_reservoir_keeps_a_bounded_uniform_sample():
    reservoir = measure.Reservoir(100, random.Random(1))
    for value in range(10_000):
        reservoir.add(value)
    sample = reservoir.samples()
    assert reservoir.count == 10_000 and len(sample) == 100
    assert 3000 < measure.median(sample) < 7000
