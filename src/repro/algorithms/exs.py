"""EXS — exhaustive single-mode search (Algorithm 1).

Every core runs one constant discrete mode; enumerate all ``L^N``
assignments, keep the feasible one (steady state under ``T_max``) with the
highest total speed.  Two implementations:

* :func:`exs` — the paper's Algorithm 1, vectorized: steady states for
  whole batches of assignments are obtained with one Cholesky solve per
  batch (the factorization is shared), so even the 9-core x 5-level grid
  (~2M assignments) is tractable.  Complexity is still exponential — this
  is the Table V cost story.
* :func:`exs_pruned` — :func:`constant_lattice_search`, the exact
  branch-and-bound AO's constant floor guard also runs: monotonicity
  (raising any core's voltage raises every temperature) prunes both on
  temperature and on throughput.  Exact same answer, often orders of
  magnitude fewer evaluations; used by the ablation benchmark.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import EngineStats, ThermalEngine, engine_entrypoint
from repro.errors import InfeasibleError
from repro.platform import Platform
from repro.schedule.builders import constant_schedule

__all__ = ["constant_lattice_search", "exs", "exs_pruned"]

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

    :func:`constant_lattice_search` over every core with no incumbent.
    ``details["evaluations"]`` counts the search nodes visited, not
    steady-state solves.
    """
    mark = engine.checkpoint()
    t0 = time.perf_counter()
    voltages, nodes = constant_lattice_search(
        engine.platform, np.arange(engine.n_cores)
    )
    if voltages is None:
        raise InfeasibleError(
            f"no constant assignment fits under theta_max={engine.theta_max:.2f} K"
        )
    peak = float(engine.steady_state_cores(voltages).max())
    return _result(
        voltages, peak, time.perf_counter() - t0, "EXS-pruned", nodes,
        stats=engine.stats_since(mark),
    )


def constant_lattice_search(
    platform: Platform,
    active: np.ndarray,
    incumbent_sum: float = -np.inf,
) -> tuple[np.ndarray | None, int]:
    """Best feasible constant assignment whose speed sum beats ``incumbent_sum``.

    Exact branch-and-bound over the ladder (DESIGN.md §5): cores ``active``
    take levels high to low in DFS order, the rest stay gated at 0 V, and
    the first maximum beating the incumbent by more than 1e-12 wins.  Core
    temperatures ``R @ psi(v)`` on the core response matrix are carried
    with the unassigned cores at ``v_min``; a level already too hot there
    is skipped, and a subtree is cut when its partial sum plus each
    unassigned core's cap (its highest level that fits with the others at
    ``v_min``) cannot win.  Steps within 1e-9 K of the limit and improving
    leaves are confirmed with the exact ``steady_state_cores``.

    Returns ``(voltages or None, nodes visited)``.
    """
    model = platform.model
    limit = platform.theta_max + 1e-9
    levels = sorted(float(v) for v in platform.ladder.levels)
    v_min = levels[0]
    n_active = active.size
    assignment = np.zeros(platform.n_cores)
    assignment[active] = v_min

    # step[l, j]: core temperatures added by raising active core j from
    # v_min to levels[l].
    level_arr = np.asarray(levels)[:, None]
    psi = np.asarray(model.power.psi(np.repeat(level_arr, platform.n_cores, axis=1)))
    step = (psi - psi[0])[:, active, None] * model.core_response[:, active].T

    best_sum = float(incumbent_sum)
    best_volts: np.ndarray | None = None
    nodes = 0

    def fits(volts: np.ndarray) -> bool:
        return float(model.steady_state_cores(volts).max()) <= limit

    def dfs(pos: int, partial_sum: float, theta: np.ndarray) -> None:
        nonlocal best_sum, best_volts, nodes
        nodes += 1
        if pos == n_active:
            if partial_sum > best_sum + 1e-12 and fits(assignment):
                best_sum = partial_sum
                best_volts = assignment.copy()
            return
        # peaks[l, j]: hottest core with unassigned core j at levels[l].
        peaks = (theta + step[:, pos:, :]).max(axis=2)
        caps = np.where(peaks <= limit + 1e-9, level_arr, 0.0).max(axis=0)
        # Half the leaf test's margin: rounding between the bound's and the
        # leaf's summation orders cannot prune a leaf the leaf test takes.
        if partial_sum + float(caps.sum()) <= best_sum + 0.5e-12:
            return
        core = active[pos]
        for k in range(len(levels) - 1, -1, -1):
            peak = peaks[k, 0]
            if peak > limit + 1e-9:
                continue
            assignment[core] = levels[k]
            if peak < limit - 1e-9 or fits(assignment):
                dfs(pos + 1, partial_sum + levels[k], theta + step[k, pos])
        assignment[core] = v_min

    try:
        dfs(0, 0.0, model.core_response @ np.asarray(model.power.psi(assignment)))
    finally:
        # The recursive closure refers to itself; empty its cell so the
        # cycle does not pin `model` and its caches until a full GC.
        del dfs
    return best_volts, nodes
