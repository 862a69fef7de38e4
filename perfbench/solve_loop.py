"""Closed-loop solve workload ``core-scaling``.

One caller sweeps the workload's cells through ``repro.guarded_solve``,
waiting for each answer before asking the next question.  A pass is one
complete sweep: every cell's platform and engine are built fresh, as a
caller running the sweep would.  A run repeats the identical pass for
at most the requested seconds, and always at least ``MIN_PASSES`` times.

The timings are each step's best over the run's passes.  On a shared
host identical work runs at one speed most of the time and up to 1.6x
slower in stretches of a second to a few minutes (a 6-core AO solve:
78-84 ms best in every 15 s of a 150 s run, 93-167 ms median), so a
pass's wall time measures the neighbours as much as the program; the
best of a few passes does not, and a slower program still shows in it.
A stretch that outlasts the whole run still shows.  The first
pass also fills the in-process eigenbasis cache and finishes lazy
imports, which the later passes then find done.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from common import (
    Child, check_answer, median, python_argv, self_peak_rss_mb, split_cpus,
)
from tracing import SOLVE_TARGETS, Recorder, clock, install, layer_metrics, uninstall
from workloads import platform_groups, solve_ops

#: A solve slower than this misses the workload's latency limit.
SOLVE_LIMIT_S = 30.0
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 3
#: Passes every run makes, however long they take.
MIN_PASSES = 2


@dataclass
class Op:
    """One solve; ``settle`` replaces the live result by its check."""

    platform: object
    solver: str
    elapsed_s: float
    result: object = None
    error: str | None = None
    infeasible: bool = False
    label: str = ""
    check: tuple = ()
    solved: bool = False
    stats: object = None
    fallback: bool = False


@dataclass
class Loop:
    ops: list[Op] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    #: Per pass, the time to build each cell's platform and engine.
    build_s: list[list[float]] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)

    @property
    def wall_s(self) -> float:
        return sum(self.pass_s)

    def best_solve_s(self) -> list[float]:
        """Each solve of the pass at its best over the passes."""
        per_pass = len(self.ops) // len(self.pass_s)
        return [
            min(op.elapsed_s for op in self.ops[i::per_pass]) for i in range(per_pass)
        ]

    def best_sweep_s(self) -> float:
        """One sweep with every build and solve at its best."""
        builds = [min(column) for column in zip(*self.build_s)]
        return math.fsum(builds) + math.fsum(self.best_solve_s())


def run_passes(repro, groups, seconds: float, settle_each_pass: bool = True,
               min_passes: int = MIN_PASSES) -> Loop:
    """Identical passes over ``groups``: ``min_passes``, then more while
    one more, at the mean pass time so far, still fits in ``seconds``.

    Between passes, outside the timed wall time, each answer is checked
    and its result dropped, so memory does not grow with the number of
    passes.
    """
    from repro.errors import InfeasibleError

    loop = Loop()
    start = clock()
    while (len(loop.pass_s) < min_passes
           or loop.wall_s * (len(loop.pass_s) + 1) / len(loop.pass_s) <= seconds):
        t_pass = clock()
        done = len(loop.ops)
        builds = []
        for spec, solvers in groups:
            t0 = clock()
            platform = repro.load_platform(spec)
            engine = repro.ThermalEngine(platform)
            builds.append(clock() - t0)
            for solver in solvers:
                t0 = clock()
                op = Op(platform, solver, 0.0)
                try:
                    op.result = repro.guarded_solve(solver, engine)
                except InfeasibleError:
                    op.infeasible = True
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    op.error = f"{type(exc).__name__}: {exc}"
                op.elapsed_s = clock() - t0
                loop.ops.append(op)
        loop.pass_s.append(clock() - t_pass)
        loop.build_s.append(builds)
        if settle_each_pass:
            for op in loop.ops[done:]:
                settle(repro, op)
    loop.window = (start, clock())
    return loop


def settle(repro, op: Op) -> None:
    """Check one answer (see :func:`common.check_answer`), keep the
    verdict and counters, drop the result.

    An ``InfeasibleError`` is a correct answer worth no throughput; any
    other exception fails the operation.
    """
    res, platform = op.result, op.platform
    op.result = op.platform = None
    op.label = f"{op.solver} on {platform.spec.canonical()}"
    if op.infeasible:
        op.check = (True, True, 0.0, "")
    elif res is None:
        op.check = (False, True, 0.0, op.error)
    else:
        op.check = check_answer(
            repro, op.solver, platform, res.schedule,
            res.peak_theta, res.throughput, res.feasible,
        )
        op.solved = True
        op.stats = res.stats
        op.fallback = bool(res.details.get("fallback"))


def summarize(loop: Loop) -> dict:
    ops = loop.ops
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.check[0])
    met = sum(1 for op in ops if op.check[0] and op.elapsed_s <= SOLVE_LIMIT_S)
    stats = [op.stats for op in ops if op.stats is not None]
    solved = [op for op in ops if op.solved]
    sweep_s = loop.best_sweep_s()
    return {
        "attempted": attempted,
        "failed": failed,
        "honest": all(op.check[1] for op in ops),
        "failures": sorted({f"{op.label}: {op.check[3]}" for op in ops if not op.check[0]}),
        "ops_per_s": attempted / len(loop.pass_s) / sweep_s,
        # The caller's request is the whole sweep.  A run estimates one
        # sweep time, so its p50 and p99 are that one figure.
        "latency_p50_ms": sweep_s * 1e3,
        "latency_p99_ms": sweep_s * 1e3,
        "sweep_s": sweep_s,
        "passes": len(loop.pass_s),
        "limit_met_share": met / attempted,
        "ok_share": (attempted - failed) / attempted,
        "mean_safe_throughput": math.fsum(op.check[2] for op in ops) / attempted,
        "engine.eigen_misses": sum(s.eigen_cache_misses for s in stats),
        "engine.expm_applications": sum(s.expm_applications for s in stats),
        "engine.steady_state_solves": sum(s.steady_state_solves for s in stats),
        "safety.fallback_share": sum(op.fallback for op in solved) / max(len(solved), 1),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from a fresh interpreter to a built workload."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = Child(python_argv("perfbench/setup_probe.py", workload, str(seed)))
        try:
            elapsed, _ = child.wait_line("ready", timeout=120)
        finally:
            code = child.finish(timeout=60)
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        samples.append(elapsed)
    return median(samples)


def pin_worker() -> None:
    """Run the solve loop, and the probes it starts, on the worker CPU."""
    split = split_cpus()
    if split:
        os.sched_setaffinity(0, split[1])


def run(repro, workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric."""
    pin_worker()
    groups = platform_groups(solve_ops(workload, seed))
    setup_s = measure_setup(workload, seed)
    summary = summarize(run_passes(repro, groups, seconds))
    summary["setup_s"] = setup_s
    summary["peak_rss_mb"] = self_peak_rss_mb()
    return summary


def run_traced(repro, workload: str, seed: int, seconds: float, span_path) -> dict:
    """Untraced passes, then one traced pass: per-layer metrics and the
    trace overhead."""
    from tracing import write_span_file

    pin_worker()
    groups = platform_groups(solve_ops(workload, seed))
    plain = run_passes(repro, groups, seconds)
    recorder = Recorder()
    undo = install(recorder, SOLVE_TARGETS)
    try:
        with repro.capture_spans() as program_spans:
            # One pass, warm from the untraced ones: every count is then
            # that of one sweep and repeats exactly from run to run.
            traced = run_passes(repro, groups, 0.0, settle_each_pass=False, min_passes=1)
    finally:
        uninstall(undo)
    for op in traced.ops:
        settle(repro, op)
    write_span_file(span_path, recorder.spans, program_spans)
    layers = layer_metrics(recorder.spans, traced.window)
    summary = summarize(traced)
    window_s = traced.window[1] - traced.window[0]
    summary.update(layers)
    # core-scaling bypasses the service layer.
    for name in ("handle_ms_p50", "handle_ms_p99", "wait_ms_p99", "cache_hit_ratio",
                 "coalesced_mean_batch"):
        summary[f"service.{name}"] = 0.0
    summary["trace.unattributed_share"] = layers["unattributed_s"] / window_s
    summary["trace.overhead_share"] = 1.0 - plain.best_sweep_s() / traced.best_sweep_s()
    return summary
