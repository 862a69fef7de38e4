"""Cross-platform thermal kernels: (platform × schedule) rows.

The comparison/certify/faults sweeps and the service's evaluate/certify
batches price schedules on several platforms at once.  Each row is a
``(model, schedule)`` pair; these entry points group the rows by model
(identity, first-seen order), price every group with one call of the
matching :mod:`repro.thermal.batch` kernel, and return the results in
input order.  Rows of one model therefore get exactly the numbers the
single-platform batch kernel gives them, whatever else shares the call.

Entry points mirror the single-platform batch API:

* :func:`periodic_steady_state_grid` — eq.-(4) stable statuses,
* :func:`stepup_peak_temperature_grid` — Theorem-1 peaks + wrap grid,
* :func:`peak_temperature_grid` — the general MatEx-style search with
  the step-up fast path applied per row.
"""

from __future__ import annotations

from repro.obs import METRICS
from repro.thermal.batch import (
    peak_temperature_batch,
    periodic_steady_state_batch,
    stepup_peak_temperature_batch,
)
from repro.thermal.peak import PeakResult
from repro.thermal.periodic import PeriodicSolution

__all__ = [
    "periodic_steady_state_grid",
    "stepup_peak_temperature_grid",
    "peak_temperature_grid",
]


def _by_model(kernel, items, **kwargs) -> list:
    """Run ``kernel(model, schedules, **kwargs)`` once per distinct model.

    ``items`` is a sequence of ``(model, schedule)`` rows; models may
    repeat in any order.  Results come back in row order.
    """
    items = tuple(items)
    groups: dict[int, list[int]] = {}
    for i, (model, _) in enumerate(items):
        groups.setdefault(id(model), []).append(i)
    METRICS.counter("grid.calls").inc()
    METRICS.counter("grid.rows").inc(len(items))
    METRICS.counter("grid.platforms").inc(len(groups))

    out: list = [None] * len(items)
    for rows in groups.values():
        model = items[rows[0]][0]
        results = kernel(model, [items[i][1] for i in rows], **kwargs)
        for i, res in zip(rows, results):
            out[i] = res
    return out


def periodic_steady_state_grid(items) -> list[PeriodicSolution]:
    """Eq.-(4) stable statuses of R (platform, schedule) rows.

    One :class:`~repro.thermal.periodic.PeriodicSolution` per row, in
    input order; see
    :func:`repro.thermal.batch.periodic_steady_state_batch`.
    """
    return _by_model(periodic_steady_state_batch, items)


def stepup_peak_temperature_grid(
    items,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> list[PeakResult]:
    """Theorem-1 stable peaks of R (platform, schedule) step-up rows.

    One :class:`~repro.thermal.peak.PeakResult` per row, in input order;
    see :func:`repro.thermal.batch.stepup_peak_temperature_batch`.
    """
    return _by_model(
        stepup_peak_temperature_batch, items,
        check=check, wrap_refine=wrap_refine, grid=grid,
    )


def peak_temperature_grid(
    items,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> list[PeakResult]:
    """Stable-status peaks of R arbitrary (platform, schedule) rows.

    One :class:`~repro.thermal.peak.PeakResult` per row, in input order;
    see :func:`repro.thermal.batch.peak_temperature_batch`.
    """
    return _by_model(
        peak_temperature_batch, items,
        grid_per_interval=grid_per_interval, refine=refine,
        stepup_fast_path=stepup_fast_path,
    )
