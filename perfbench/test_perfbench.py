"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math

import pytest

import run

bmtails = run.import_library()

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(run.ROOT / "BENCHMARK.json") as fh:
    BENCHMARK = json.load(fh)


def listed(section):
    return {m["name"] for m in BENCHMARK[section]}


def test_failure_rule_flags_exactly_the_recorded_deep_tail():
    reference = workloads.load_reference()["det-points"]
    flagged = {label for label, _, floor in workloads.point_specs()
               if workloads.failure_reason(reference[label]["log_survival"], floor)}
    assert flagged == {workloads.point_label(*k) for k in workloads.DEEP_TAIL}
    assert len(flagged) == 14


def test_failure_rule_cases():
    assert workloads.failure_reason(-math.inf, 1.0) == "non-finite log_survival"
    assert workloads.failure_reason(math.nan, None) == "non-finite log_survival"
    assert workloads.failure_reason(-29.4, 29.7) is not None
    assert workloads.failure_reason(-30.0, 29.7) is None
    assert workloads.failure_reason(-0.5, None) is None


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS


def test_timed_queries_have_certified_references():
    reference = workloads.load_reference()
    for name in ("det-points", "det-levels"):
        w = workloads.build(name, run.DEFAULT_SEED, reference)
        for q in w.queries:
            assert math.isfinite(reference[name][q.label]["log_survival"]), q.label
    assert len(workloads.build("det-points", 1, reference).queries) == 51 - 14
    assert len(workloads.build("det-levels", 1, reference).queries) == 191


def test_end_to_end_names_match_benchmark_json():
    lat = run.latency_summary([[0.1, 0.2], [0.3, 0.4]])
    values = run.end_to_end_values(1.5, lat, attempted=4, failed=1)
    assert set(values) == listed("end_to_end")
    assert values["ok_frac"] == 0.75
    assert values["wall_s"] == pytest.approx(0.15 + 0.35)
    assert all(v > 0 for v in values.values())


def test_latency_tail_keeps_ten_samples_beyond():
    lat = run.latency_summary([[x] for x in range(1, 38)])
    assert lat["tail_beyond"] == 10 and lat["tail_percentile"] == 100 * 27 / 37
    assert lat["tail_s"] == pytest.approx(27, abs=0.5)
    assert lat["p50_s"] == pytest.approx(19)
    assert run.latency_summary([[1.0], [3.0]])["tail_s"] == 3.0
    assert run.latency_summary([[1.0], [3.0]])["p50_s"] == pytest.approx(2.0)


def test_loop_makes_one_whole_pass_and_calibrates_each_query():
    calls = []
    queries = [workloads.Query(f"q{i}", lambda k, i=i: calls.append((i, k)) or k,
                               lambda res: workloads.Verdict()) for i in range(3)]
    calibration.warm_up(1)
    samples, slots = run.run_loop(workloads.Workload("w", queries), 0)
    assert calls == [(0, 0), (1, 0), (2, 0)]
    assert [s[:2] for s in samples] == calls and len(slots) == 3


def test_normalise_scales_by_the_nearby_kernel_speed():
    ref = calibration.REFERENCE_S
    # a machine twice as slow as the reference doubles both times
    assert calibration.normalise([0.4, 0.4], [2 * ref, 2 * ref]) == \
        pytest.approx([0.2, 0.2])
    slots = [ref] * 10 + [2 * ref] * 10
    out = calibration.normalise([1.0] * 20, slots)
    assert out[0] == pytest.approx(1.0) and out[-1] == pytest.approx(0.5)


def test_sim_check_pools_the_passes():
    w = workloads.build("sim-mc", 1)
    packed, tail = (q.label for q in w.queries)
    batch = type("Batch", (), {"values": [0.0] * workloads.SIM_REPS})
    problems, stats = w.final_check({packed: [batch], tail: [(0.5, 0.01)]})
    assert len(problems) == 2 and stats["bias_sigma"] > workloads.SIGMA_GATE


def test_traced_calls_give_every_per_layer_metric():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.query_span("flat"):
            bmtails.prob_flat(1.0, 1.0)
        with tracer.query_span("levels"):
            bmtails.prob_finite_n(1, 1.0, 0.5)
        with tracer.query_span("sim"):
            cfg = bmtails.SimConfig(ic="packed", t=2, dt=1e-2, reps=8, seed=3)
            bmtails.simulate_samples(cfg)
    finally:
        tracer.uninstall()
    values, missing = run.per_layer_values(tracer, 3, {}, [], 0.1, 0.0)
    assert missing == [] and tracer.missing == []
    assert set(values) == listed("per_layer")
    for name in ("lambertw.calls", "rates.calls", "contours.builds",
                 "kernels.flops", "fredholm.solves", "sim.blocks"):
        assert values[name] > 0, name
    assert values["sim.updates"] == 8 * 200 * 2
    # the originals are back in place
    assert bmtails.fredholm._det_core.__module__ == "bmtails.fredholm"
    assert not hasattr(bmtails.fredholm._det_core, "__wrapped__")


def test_removed_layer_function_is_reported_missing(monkeypatch):
    monkeypatch.delattr(bmtails.sim, "_evolve_block")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    _, missing = tracing.layer_metrics(tracer, 1, 2)
    assert "bmtails.sim._evolve_block" in tracer.missing
    assert {"sim.blocks", "sim.updates", "sim.busy_frac"} <= set(missing)
    assert "fredholm.solves" not in missing


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(0, "a", "p", 0.0, 10.0, None, 1, None),
             tracing.Span(1, "b", "c", 1.0, 4.0, 0, 1, None),
             tracing.Span(2, "b", "c", 3.0, 5.0, 0, 2, None)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(3.0)


def test_sim_seeds_follow_the_workload_seed_and_pass():
    assert workloads.sim_seeds(1, 0) == workloads.sim_seeds(1, 0)
    assert workloads.sim_seeds(1, 0) != workloads.sim_seeds(2, 0)
    assert workloads.sim_seeds(1, 0) != workloads.sim_seeds(1, 1)
