"""Seeded workload generation.

Every workload is a plain list of JSON-able operation documents built
from ``--seed`` alone, so the program under test only ever sees the
generated inputs and the same seed always yields the same operations.
This module imports numpy but not ``repro``: the tests check
determinism without building a single platform.

A solve's cost swings with ``T_max``, and not smoothly: PCO on 12
``tech-45-io`` cores takes 1.2 s at 55.10 C and 3.2 s at 55.15 C (its
fill phase), and the cost of the whole pass moved by up to a quarter
from seed to seed when every cell drew its threshold.  So the cells that
dominate a pass run at fixed thresholds, and the seed draws the
thresholds of the cheap 4-core cells, the serve hot keys, and the serve
arrival times.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("core-scaling", "serve-mixed")

#: core-scaling: AO as the core count grows, then the 16 nm point where
#: full-chip operation is infeasible.
SCALING_PRESET = "tech-45-io"
SCALING_T = 55.0  # the tech presets' threshold
SCALING_T_SPREAD = 2.0
#: Solvers per core count.  PCO stops at 6 cores and EXS and LNS at 4:
#: on 8 to 12 cores one PCO solve takes 0.7 to 1.3 s, and a long single
#: solve's best time swings with the host (see solve_loop.py).
SCALING_SOLVERS = {
    4: ("LNS", "EXS", "AO", "PCO"),
    6: ("AO", "PCO"),
    8: ("AO",),
    10: ("AO",),
    12: ("AO",),
}
#: Core counts that draw one threshold in each half of
#: ``SCALING_T +- SCALING_T_SPREAD``; the others run at ``SCALING_T``.
SCALING_DRAWN_CORES = (4,)
DARK_PRESET = "tech-16-io"
DARK_CORES = 16
DARK_SOLVERS = ("AO", "PCO", "dark")

#: serve-mixed: open-loop traffic mix.
SERVE_RATE = 40.0
SERVE_HOT_SHARE = 0.75
SERVE_COLD_SHARE = 0.10
SERVE_EVALUATE_SHARE = 0.08
#: The rest (7 %) are certify requests.
SERVE_HOT_KEYS = (
    ("AO", 3),
    ("PCO", 3),
    ("AO", 2),
    ("LNS", 3),
    ("EXS", 2),
)
SERVE_COLD_SOLVERS = ("AO", "PCO", "LNS", "integral")
SERVE_COLD_CORES = (2, 3)
SERVE_T_RANGE = (55.0, 70.0)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def solve_ops(workload: str, seed: int) -> list[dict]:
    """The ordered solve operations of one pass of ``core-scaling``.

    Each operation is ``{"platform": <spec document>, "solver": name}``;
    consecutive operations on the same platform document share one
    platform and engine, as a caller sweeping cells would.
    """
    if workload != "core-scaling":
        raise ValueError(f"{workload!r} is not a solve workload")
    rng = _rng(seed, workload)
    ops: list[dict] = []
    for n, solvers in SCALING_SOLVERS.items():
        if n in SCALING_DRAWN_CORES:
            lo = SCALING_T - SCALING_T_SPREAD
            thresholds = [lo + SCALING_T_SPREAD * (k + float(rng.uniform())) for k in (0, 1)]
        else:
            thresholds = [SCALING_T]
        for t_max in thresholds:
            platform = {
                "name": SCALING_PRESET,
                "n_cores": n,
                "t_max_c": round(t_max, 6),
            }
            ops += [{"platform": platform, "solver": s} for s in solvers]
    platform = {"name": DARK_PRESET, "n_cores": DARK_CORES}
    ops += [{"platform": platform, "solver": s} for s in DARK_SOLVERS]
    return ops


def platform_groups(ops: list[dict]) -> list[tuple[dict, list[str]]]:
    """Consecutive operations sharing a platform: ``(platform, solvers)``."""
    groups: list[tuple[dict, list[str]]] = []
    for op in ops:
        if groups and groups[-1][0] == op["platform"]:
            groups[-1][1].append(op["solver"])
        else:
            groups.append((op["platform"], [op["solver"]]))
    return groups


def serve_plan(seed: int, seconds: float) -> dict:
    """The serve-mixed traffic for ``seconds`` of open-loop arrivals.

    Returns ``{"hot": [...], "requests": [(due_s, doc), ...]}``.  The hot
    solves are sent once during set-up so that the timed hot requests
    are cache reads; evaluate/certify requests carry ``"hot": i``, the
    index of the hot solve whose returned schedule they re-price, and
    the load generator fills the schedule in.  Cold solves get a fresh
    threshold each, so every one is a cache write.

    Cache reads, evaluates and certifies arrive as a Poisson stream.
    Cold solves arrive on a regular grid at the same mean rate, shifted
    by one seed-drawn phase, and each solver x core count takes its
    thresholds from a fixed even grid over the range, in seed-shuffled
    order.  The served p99 is set by the few slowest cold solves and the
    requests queued behind them: with Poisson cold arrivals it hinged on
    whether a rare burst of them landed in the window, and with drawn
    thresholds on whether a few landed where PCO's cost jumps.
    """
    rng = _rng(seed, "serve-mixed")
    lo, hi = SERVE_T_RANGE
    width = (hi - lo) / len(SERVE_HOT_KEYS)
    hot = []
    for k, (solver, n) in enumerate(SERVE_HOT_KEYS):
        # Hot key k draws its threshold from the k-th stratum of the
        # range: three quarters of all solves are hot, so this keeps the
        # mean throughput from swinging with the seed.
        platform = {
            "name": "paper",
            "n_cores": n,
            "t_max_c": round(lo + width * (k + float(rng.uniform())), 6),
        }
        hot.append({"op": "solve", "platform": platform, "solver": solver})
    requests: list[tuple[float, dict]] = []
    warm_rate = SERVE_RATE * (1.0 - SERVE_COLD_SHARE)
    evaluate_share = SERVE_EVALUATE_SHARE / (1.0 - SERVE_COLD_SHARE)
    certify_share = (1.0 - SERVE_HOT_SHARE - SERVE_COLD_SHARE - SERVE_EVALUATE_SHARE) / (
        1.0 - SERVE_COLD_SHARE
    )
    t = float(rng.exponential(1.0 / warm_rate))
    while t < seconds:
        u = float(rng.uniform())
        i = int(rng.integers(len(hot)))
        if u < evaluate_share:
            doc = {"op": "evaluate", "hot": i}
        elif u < evaluate_share + certify_share:
            doc = {"op": "certify", "hot": i}
        else:
            doc = dict(hot[i])
        requests.append((t, doc))
        t += float(rng.exponential(1.0 / warm_rate))
    slot = 1.0 / (SERVE_RATE * SERVE_COLD_SHARE)
    n_cold = int(seconds / slot)
    combos = len(SERVE_COLD_SOLVERS) * len(SERVE_COLD_CORES)
    per_combo = -(-n_cold // combos)
    grids = [rng.permutation(per_combo) for _ in range(combos)]
    phase = float(rng.uniform())
    for k in range(n_cold):
        # Cycle through solver x core count so that every run has the
        # same cold mix; the threshold makes each key unique.
        solver = SERVE_COLD_SOLVERS[k % len(SERVE_COLD_SOLVERS)]
        n_cores = SERVE_COLD_CORES[(k // len(SERVE_COLD_SOLVERS)) % len(SERVE_COLD_CORES)]
        j = grids[k % combos][k // combos]
        doc = {
            "op": "solve",
            "platform": {
                "name": "paper",
                "n_cores": n_cores,
                "t_max_c": round(lo + (hi - lo) * (int(j) + 0.5) / per_combo, 6),
            },
            "solver": solver,
        }
        requests.append((slot * (k + phase), doc))
    requests.sort(key=lambda item: item[0])
    return {"hot": hot, "requests": requests}
