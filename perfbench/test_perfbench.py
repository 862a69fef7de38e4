"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from common import REPO, check_answer, import_repro
from tracing import Recorder, install, layer_metrics, parse_importtime, uninstall
from workloads import WORKLOADS, platform_groups, serve_plan, solve_ops

repro = import_repro()

import solve_loop  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _t_max_values(ops):
    return sorted({op["platform"].get("t_max_c") for op in ops} - {None})


def test_same_seed_same_operations():
    assert solve_ops("core-scaling", 7) == solve_ops("core-scaling", 7)


def test_same_seed_same_serve_plan():
    assert serve_plan(7, 5.0) == serve_plan(7, 5.0)


def test_other_seed_other_thresholds():
    assert _t_max_values(solve_ops("core-scaling", 1)) != _t_max_values(solve_ops("core-scaling", 2))


def test_other_seed_other_serve_thresholds():
    a, b = serve_plan(1, 5.0), serve_plan(2, 5.0)
    assert [d["platform"]["t_max_c"] for d in a["hot"]] != [
        d["platform"]["t_max_c"] for d in b["hot"]
    ]


def test_every_cold_solve_is_a_distinct_cache_miss():
    plan = serve_plan(3, 30.0)
    hot = [json.dumps(doc, sort_keys=True) for doc in plan["hot"]]
    cold = [
        json.dumps(doc, sort_keys=True) for _, doc in plan["requests"]
        if doc["op"] == "solve" and json.dumps(doc, sort_keys=True) not in hot
    ]
    assert len(cold) == 120 and len(set(cold)) == len(cold)


def test_best_sweep_takes_each_step_at_its_best():
    loop = solve_loop.Loop(
        ops=[solve_loop.Op(None, s, t) for s, t in
             [("AO", 3.0), ("PCO", 1.0), ("AO", 2.0), ("PCO", 4.0)]],
        pass_s=[4.5, 6.2], build_s=[[0.5], [0.2]],
    )
    assert loop.best_solve_s() == [2.0, 1.0]
    assert loop.best_sweep_s() == pytest.approx(3.2)


def test_thresholds_stay_in_their_ranges():
    for seed in range(5):
        for op in solve_ops("core-scaling", seed):
            t_max = op["platform"].get("t_max_c", 55.0)
            assert 53.0 <= t_max <= 57.0


def _small_pass(seed, settle=True):
    groups = platform_groups(solve_ops("core-scaling", seed))[:2]
    return solve_loop.run_passes(repro, groups, 1e-9, settle_each_pass=settle, min_passes=1)


def test_same_seed_same_mean_safe_throughput():
    a = solve_loop.summarize(_small_pass(3))
    b = solve_loop.summarize(_small_pass(3))
    assert a["mean_safe_throughput"] == b["mean_safe_throughput"] > 0
    assert a["failed"] == 0 and a["honest"] and a["attempted"] == 8


def test_check_flags_injected_wrong_peak():
    op = next(op for op in _small_pass(4, settle=False).ops if op.solver == "AO")
    wrong = dataclasses.replace(op.result, peak_theta=op.result.peak_theta - 0.01)
    injected = dataclasses.replace(op, result=wrong)
    solve_loop.settle(repro, op)
    solve_loop.settle(repro, injected)
    assert op.check[:2] == (True, True)
    ok, honest, throughput, reason = injected.check
    assert (ok, honest, throughput) == (False, False, 0.0)
    assert "re-evaluated" in reason


def test_check_flags_unsafe_schedule_even_when_reported_infeasible():
    from repro.schedule.builders import constant_schedule

    platform = repro.load_platform("paper", n_cores=3, t_max_c=55.0)
    top = constant_schedule([platform.ladder.levels[-1]] * 3, period=0.02)
    ev = repro.evaluate(platform, top)
    assert ev.peak_theta > ev.theta_max
    ok, honest, _, reason = check_answer(
        repro, "AO", platform, top, ev.peak_theta, ev.throughput, False
    )
    assert (ok, honest) == (False, True) and "exceeds theta_max" in reason
    ok, honest, _, _ = check_answer(
        repro, "AO", platform, top, ev.peak_theta, ev.throughput, True
    )
    assert (ok, honest) == (False, False)


def test_metric_names_and_units():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_traced_pass_reports_every_layer_metric():
    original = repro.certify
    recorder = Recorder()
    undo = install(recorder, solve_loop.SOLVE_TARGETS)
    try:
        assert repro.certify is not original
        loop = _small_pass(5, settle=False)
    finally:
        uninstall(undo)
    assert repro.certify is original
    layers = layer_metrics(recorder.spans, loop.window)
    for op in loop.ops:
        solve_loop.settle(repro, op)
    assert layers["schedule.built"] > 0 and layers["safety.certify_calls"] > 0
    assert layers["algorithms.AO.self_ms"] > 0 and layers["thermal.batch_candidates"] > 0
    assert 0.0 <= layers["unattributed_s"] <= loop.window[1] - loop.window[0]
    produced = set(layers) | set(solve_loop.summarize(loop))
    produced |= {"import.repro_ms", "import.repro_self_ms", "import.scipy_ms"}
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - produced
    # Filled in by the runners from figures outside the span recorder.
    assert missing <= {
        "service.handle_ms_p50", "service.handle_ms_p99", "service.wait_ms_p99",
        "service.cache_hit_ratio", "service.coalesced_mean_batch",
        "trace.unattributed_share", "trace.overhead_share",
    }


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     scipy.linalg",
        "import time:       200 |        500 |   scipy",
        "import time:        50 |         50 |   repro.thermal",
        "import time:        25 |       1000 | repro",
    ])
    assert parse_importtime(text) == pytest.approx({
        "import.repro_ms": 1.0, "import.repro_self_ms": 0.075, "import.scipy_ms": 0.3,
    })
