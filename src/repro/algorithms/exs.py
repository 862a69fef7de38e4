"""EXS — exhaustive single-mode search (Algorithm 1).

Every core runs one constant discrete mode; enumerate all ``L^N``
assignments, keep the feasible one (steady state under ``T_max``) with the
highest total speed.  Two implementations:

* :func:`exs` — the paper's Algorithm 1, vectorized: steady states for
  whole batches of assignments are obtained with one Cholesky solve per
  batch (the factorization is shared), so even the 9-core x 5-level grid
  (~2M assignments) is tractable.  Complexity is still exponential — this
  is the Table V cost story.
* :func:`exs_pruned` — depth-first search exploiting monotonicity (raising
  any core's voltage raises every temperature) plus a throughput bound.
  Exact same answer, often orders of magnitude fewer evaluations; used by
  the ablation benchmark.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import EngineStats, ThermalEngine, engine_entrypoint
from repro.errors import InfeasibleError
from repro.schedule.builders import constant_schedule

__all__ = ["exs", "exs_pruned"]

#: Assignments evaluated per vectorized batch (bounds peak memory).
BATCH = 65536


def _result(voltages: np.ndarray, peak: float, elapsed: float,
            name: str, evaluations: int,
            stats: EngineStats | None = None) -> SchedulerResult:
    return SchedulerResult(
        name=name,
        schedule=constant_schedule(voltages, period=0.02),
        throughput=float(np.mean(voltages)),
        peak_theta=float(peak),
        feasible=True,
        runtime_s=elapsed,
        details={"evaluations": evaluations},
        stats=stats,
    )


@engine_entrypoint("EXS")
def exs(engine: ThermalEngine) -> SchedulerResult:
    """The paper's Algorithm 1 (vectorized full enumeration).

    Raises
    ------
    InfeasibleError
        If not even the all-lowest assignment fits under ``T_max``.
    """
    mark = engine.checkpoint()
    t0 = time.perf_counter()
    levels = np.asarray(engine.ladder.levels)
    n = engine.n_cores
    theta_max = engine.theta_max

    best_throughput = -np.inf
    best_voltages: np.ndarray | None = None
    best_peak = np.inf
    evaluations = 0

    combos = itertools.product(range(levels.size), repeat=n)
    while True:
        chunk = list(itertools.islice(combos, BATCH))
        if not chunk:
            break
        evaluations += len(chunk)
        volts = levels[np.asarray(chunk)]  # (batch, n)
        theta = engine.steady_state_batch(volts)  # (batch, n)
        peaks = theta.max(axis=1)
        feasible = peaks <= theta_max + 1e-9
        if not feasible.any():
            continue
        sums = volts.sum(axis=1)
        sums[~feasible] = -np.inf
        k = int(np.argmax(sums))
        if sums[k] > best_throughput:
            best_throughput = float(sums[k])
            best_voltages = volts[k]
            best_peak = float(peaks[k])

    elapsed = time.perf_counter() - t0
    if best_voltages is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return _result(
        best_voltages, best_peak, elapsed, "EXS", evaluations,
        stats=engine.stats_since(mark),
    )


@engine_entrypoint("EXS-pruned")
def exs_pruned(engine: ThermalEngine) -> SchedulerResult:
    """Monotonicity-pruned exact search (same answer as :func:`exs`).

    DFS over cores assigns levels from high to low.  Two prunes:

    * *thermal*: a partial assignment is evaluated with all remaining
      cores at the lowest level; if that optimistic completion already
      violates ``T_max``, no completion is feasible (monotonicity).
    * *bound*: if the partial sum plus ``v_max`` for every unassigned core
      cannot beat the incumbent, the subtree is skipped.
    """
    mark = engine.checkpoint()
    t0 = time.perf_counter()
    levels = sorted(engine.ladder.levels, reverse=True)
    n = engine.n_cores
    theta_max = engine.theta_max
    v_min, v_max = engine.ladder.v_min, engine.ladder.v_max

    best = {"sum": -np.inf, "voltages": None, "peak": np.inf, "evals": 0}
    assignment = np.full(n, v_min)

    def peak_of(volts: np.ndarray) -> float:
        best["evals"] += 1
        return float(engine.steady_state_cores(volts).max())

    def dfs(core: int, partial_sum: float) -> None:
        if partial_sum + (n - core) * v_max <= best["sum"] + 1e-12:
            return
        if core == n:
            peak = peak_of(assignment.copy())
            if peak <= theta_max + 1e-9 and partial_sum > best["sum"]:
                best["sum"] = partial_sum
                best["voltages"] = assignment.copy()
                best["peak"] = peak
            return
        for lvl in levels:
            assignment[core] = lvl
            # Optimistic completion: all remaining cores at the lowest level.
            optimistic = assignment.copy()
            optimistic[core + 1 :] = v_min
            if peak_of(optimistic) > theta_max + 1e-9:
                assignment[core] = v_min
                continue  # even the coolest completion fails; try a lower level
            dfs(core + 1, partial_sum + lvl)
        assignment[core] = v_min

    try:
        dfs(0, 0.0)
    finally:
        # The recursive closure refers to itself; empty its cell so the
        # cycle does not pin the engine's model until a full GC.
        del dfs
    elapsed = time.perf_counter() - t0
    if best["voltages"] is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={theta_max:.2f} K"
        )
    return _result(
        best["voltages"],
        best["peak"],
        elapsed,
        "EXS-pruned",
        best["evals"],
        stats=engine.stats_since(mark),
    )
