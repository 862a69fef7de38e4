"""Batched stable-status and peak evaluation for candidate schedules.

Every optimizer in this reproduction (the TPT ratio adjustment, the
m-oscillation sweep, PCO's phase search) prices *sets* of candidate
schedules that share one thermal model.  Because the system matrix ``A``
is constant across intervals, the whole stable-status machinery lives in
the eigenbasis of ``A``:

* each interval's propagator ``expm(A l)`` is the diagonal map
  ``y -> exp(lam * l) * y``,
* the monodromy of a period is ``exp(lam * t_p)`` — no dense product
  chain,
* the fixed point ``(I - K)^{-1} d`` of eq. (4) is the elementwise divide
  ``y_d / (1 - exp(lam * t_p))`` — no linear solve.

So K candidates that differ only in their interval lengths and ``t_inf``
vectors reduce to stacked elementwise recurrences over a ``(K, Z, n)``
tensor plus two dense basis changes for the whole batch.  This module
gathers candidates into arrays (padding to the longest interval count —
a zero-length interval is the identity), resolves all stable states at
once, and mirrors the scalar peak searches of :mod:`repro.thermal.peak`
grid-for-grid so results match the scalar path to solver precision.
Candidates come as schedule objects or, for the step-up kernel, as a
:class:`~repro.schedule.builders.TwoModeCandidates`, which already is
arrays.

Entry points:

* :func:`periodic_steady_state_batch` — eq. (4) fixed points for K
  schedules, one vectorized pass.
* :func:`stepup_peak_temperature_batch` — Theorem-1 peaks (plus the
  wrap-refine grid) for K step-up schedules.
* :func:`peak_temperature_batch` — the general MatEx-style extrema
  search for arbitrary schedules, with the step-up fast path applied per
  candidate.

These are the only batched thermal kernels: the cross-platform entry
points of :mod:`repro.thermal.grid` group their rows by model and call
them once per model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.builders import TwoModeCandidates
from repro.schedule.properties import is_step_up
from repro.thermal.model import ThermalModel
from repro.thermal.peak import PeakResult
from repro.thermal.periodic import PeriodicSolution

__all__ = [
    "periodic_steady_state_batch",
    "stepup_peak_temperature_batch",
    "peak_temperature_batch",
]

#: Upper bound on the elements of one dense grid tensor ``(K, Z, G, n)``;
#: larger batches are scanned in K-chunks to bound peak memory (~64 MB).
GRID_CHUNK_ELEMENTS = 8_000_000

#: Bisection halvings of an extremum bracket: enough to pin the root of
#: the derivative to ~2^-64 of the bracket width.
_REFINE_STEPS = 64


@dataclass(frozen=True)
class _Stack:
    """Stacked stable-status solution of K candidate schedules.

    All arrays are padded along the interval axis to ``Z = max(z_k)``;
    padding intervals have zero length (identity propagators) so the
    recurrences pass through them unchanged.
    """

    z: np.ndarray  # (K,) true interval counts
    periods: np.ndarray  # (K,) candidate periods
    lengths: np.ndarray  # (K, Z) interval lengths, 0-padded
    starts: np.ndarray  # (K, Z) interval start offsets within the period
    mask: np.ndarray  # (K, Z) True on real intervals
    t_inf: np.ndarray  # (K, Z, n) theta-space steady states, 0-padded
    g: np.ndarray  # (K, Z, n) eigenbasis steady states
    decay: np.ndarray  # (K, Z, n) exp(lam * length), 1 on padding
    y_bound: np.ndarray  # (K, Z + 1, n) eigenbasis boundary states
    theta_bound: np.ndarray  # (K, Z + 1, n) theta-space boundary states

    @property
    def k(self) -> int:
        return self.lengths.shape[0]

    @property
    def n_pad(self) -> int:
        return self.lengths.shape[1]

    def modal(self) -> np.ndarray:
        """``(K, Z, n)`` eigenbasis modal coefficients per interval.

        Within interval ``q`` of candidate k,
        ``theta(t) = t_inf + W @ (modal * exp(lam t))``.
        """
        return self.y_bound[:, :-1, :] - self.g


def _gather(candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidates as arrays: ``(lengths (K, Z), volts (K, Z, N), z (K,), periods (K,))``.

    ``candidates`` is a sequence of schedules or a
    :class:`~repro.schedule.builders.TwoModeCandidates`, which already
    is arrays.  Periods are summed the way
    :attr:`PeriodicSchedule.period` sums them, so both forms agree bit
    for bit.
    """
    if isinstance(candidates, TwoModeCandidates):
        lengths, volts, z = candidates.intervals
        periods = np.array(
            [float(sum(row[:zk])) for row, zk in zip(lengths.tolist(), z.tolist())]
        )
        return lengths, volts, z, periods
    schedules = tuple(candidates)
    k = len(schedules)
    z = np.array([s.n_intervals for s in schedules], dtype=int)
    z_max = int(z.max()) if k else 0
    lengths = np.zeros((k, z_max))
    volts = np.zeros((k, z_max, schedules[0].n_cores if k else 0))
    for i, sched in enumerate(schedules):
        lengths[i, : z[i]] = sched.lengths
        volts[i, : z[i]] = sched.voltage_matrix
    return lengths, volts, z, np.array([s.period for s in schedules])


def _solve_arrays(model: ThermalModel, lengths, volts, z, periods) -> _Stack:
    """Resolve the stable status of K stacked candidates in one pass."""
    k, z_max = lengths.shape
    n = model.n_nodes
    lam = model.eigen.eigenvalues
    mask = np.arange(z_max)[None, :] < z[:, None]

    # Candidate sets re-use a handful of mode vectors: resolve each
    # distinct voltage row once, in order of first appearance, through
    # the model's LRU-aware many-vector path.
    t_inf = np.zeros((k, z_max, n))
    rows = volts[mask]
    if len(rows):
        uniq, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        theta = np.empty((len(uniq), n))
        theta[order] = model.steady_state_many(uniq[order])
        t_inf[mask] = theta[inverse.reshape(-1)]
    starts = np.concatenate(
        [np.zeros((k, 1)), np.cumsum(lengths, axis=1)[:, :-1]], axis=1
    ) if z_max else np.zeros((k, 0))

    # Eigenbasis steady states and per-interval diagonal propagators.
    g = t_inf @ model.eigen.w_inv.T
    decay = np.exp(lengths[:, :, None] * lam[None, None, :])

    # Affine part of one period from theta(0) = 0, then the eq.-(4) fixed
    # point: the monodromy is diagonal, so (I - K)^{-1} is a divide.
    y = np.zeros((k, n))
    for q in range(z_max):
        y = g[:, q] + decay[:, q] * (y - g[:, q])
    t_p = lengths.sum(axis=1)
    y0 = y / (1.0 - np.exp(t_p[:, None] * lam[None, :])) if k else y

    y_bound = np.empty((k, z_max + 1, n))
    y_bound[:, 0] = y0
    for q in range(z_max):
        y_bound[:, q + 1] = g[:, q] + decay[:, q] * (y_bound[:, q] - g[:, q])
    theta_bound = y_bound @ model.eigen.w.T

    return _Stack(
        z=z,
        periods=periods,
        lengths=lengths,
        starts=starts,
        mask=mask,
        t_inf=t_inf,
        g=g,
        decay=decay,
        y_bound=y_bound,
        theta_bound=theta_bound,
    )


def _solve_stack(model: ThermalModel, candidates) -> _Stack:
    """Gather K candidates into arrays and resolve every stable status."""
    return _solve_arrays(model, *_gather(candidates))


def periodic_steady_state_batch(
    model: ThermalModel,
    schedules,
) -> list[PeriodicSolution]:
    """Solve the eq.-(4) stable status of K candidate schedules at once.

    Parameters
    ----------
    model:
        The shared thermal model (supplies the eigendecomposition).
    schedules:
        Iterable of :class:`~repro.schedule.periodic.PeriodicSchedule`
        candidates; interval counts may differ per candidate.

    Returns
    -------
    One :class:`~repro.thermal.periodic.PeriodicSolution` per input, in
    input order, matching :func:`repro.thermal.periodic.periodic_steady_state`
    to solver precision.  The cost is a handful of vectorized passes over
    a ``(K, max_z, n)`` tensor instead of K dense monodromy chains and K
    linear solves.
    """
    schedules = tuple(schedules)
    stack = _solve_stack(model, schedules)
    out = []
    for i, sched in enumerate(schedules):
        out.append(
            PeriodicSolution(
                schedule=sched,
                boundary_temperatures=stack.theta_bound[i, : stack.z[i] + 1].copy(),
            )
        )
    return out


def _grid_scan(
    stack: _Stack,
    model: ThermalModel,
    grid: int,
    chunk: slice,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense core-temperature grid over every interval of a K-chunk.

    Returns ``(times, temps)`` with shapes ``(k, Z, G)`` and
    ``(k, Z, G, C)`` — local sample instants per interval and the core
    temperatures there.  Padded intervals produce constant rows equal to
    the period-end state (harmless for maxima; callers mask them).
    """
    cores = model.network.core_nodes
    lam = model.eigen.eigenvalues
    w_cores = model.eigen.w[cores, :]
    n_grid = max(int(grid), 2)

    frac = np.linspace(0.0, 1.0, n_grid)
    times = stack.lengths[chunk][:, :, None] * frac[None, None, :]
    modal = stack.modal()[chunk]
    # (k, Z, G, n_modes) -> contract modes against the core rows of W.
    phase = np.exp(times[:, :, :, None] * lam[None, None, None, :])
    temps = (phase * modal[:, :, None, :]) @ w_cores.T
    temps += stack.t_inf[chunk][:, :, None, cores]
    return times, temps


def _grid_chunks(stack: _Stack, model: ThermalModel, grid: int):
    """Yield ``(chunk_slice, times, temps)`` bounding peak memory."""
    per_k = max(stack.n_pad * max(int(grid), 2) * model.n_nodes, 1)
    step = max(1, GRID_CHUNK_ELEMENTS // per_k)
    for lo in range(0, stack.k, step):
        chunk = slice(lo, min(lo + step, stack.k))
        times, temps = _grid_scan(stack, model, grid, chunk)
        yield chunk, times, temps


def stepup_peak_temperature_batch(
    model: ThermalModel,
    schedules,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> list[PeakResult]:
    """Theorem-1 stable peaks of K step-up schedules in one pass.

    Mirrors :func:`repro.thermal.peak.stepup_peak_temperature` candidate
    by candidate — period-end boundary temperatures plus the vectorized
    wrap-continuation grid — with the grid evaluated for the whole batch
    at once.  ``schedules`` is a sequence of schedules or a
    :class:`~repro.schedule.builders.TwoModeCandidates`, priced straight
    from its arrays (step-up by construction, so never checked).
    """
    if not isinstance(schedules, TwoModeCandidates):
        schedules = tuple(schedules)
        if check:
            for sched in schedules:
                if not is_step_up(sched):
                    raise ScheduleError(
                        "stepup_peak_temperature requires a step-up schedule; "
                        "use peak_temperature for arbitrary schedules"
                    )
    if not len(schedules):
        return []
    stack = _solve_stack(model, schedules)
    cores = model.network.core_nodes
    k = stack.k

    end = stack.theta_bound[np.arange(k), stack.z, :][:, cores]
    core_peaks = end.copy()
    best_core = np.argmax(end, axis=1)
    best_val = end[np.arange(k), best_core]
    best_time = stack.periods.copy()

    if wrap_refine:
        for chunk, times, temps in _grid_chunks(stack, model, grid):
            masked = np.where(
                stack.mask[chunk][:, :, None, None], temps, -np.inf
            )
            np.maximum(
                core_peaks[chunk],
                masked.max(axis=(1, 2)),
                out=core_peaks[chunk],
            )
            kc, zc, gc, cc = masked.shape
            flat = masked.reshape(kc, -1)
            arg = np.argmax(flat, axis=1)
            vals = flat[np.arange(kc), arg]
            better = vals > best_val[chunk]
            if better.any():
                qi, gi, ci = np.unravel_index(arg, (zc, gc, cc))
                rows = np.arange(kc)
                when = stack.starts[chunk][rows, qi] + times[rows, qi, gi]
                sub = np.where(better)[0]
                base = chunk.start if chunk.start else 0
                for j in sub:
                    best_val[base + j] = vals[j]
                    best_core[base + j] = ci[j]
                    best_time[base + j] = when[j]

    return [
        PeakResult(
            value=float(best_val[i]),
            core=int(best_core[i]),
            time=float(best_time[i]),
            core_peaks=core_peaks[i].copy(),
        )
        for i in range(k)
    ]


def _grid_winners(
    times: np.ndarray, temps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense-grid maximum of every (candidate, interval) cell.

    Returns ``(value, core, local time)``, each ``(k, Z)``.
    """
    kc, zc, gc, cc = temps.shape
    flat = temps.reshape(kc, zc, -1)
    arg = flat.argmax(axis=2)
    gi, ci = np.unravel_index(arg, (gc, cc))
    val = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
    when = np.take_along_axis(times, gi[:, :, None], axis=2)[:, :, 0]
    return val, ci, when


def _refine_interval_best(
    stack: _Stack,
    model: ThermalModel,
    times: np.ndarray,
    temps: np.ndarray,
    chunk: slice,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval best ``(value, core, local time)``, each ``(k, Z)``.

    Mirrors :meth:`repro.thermal.matex.IntervalSolution.peak`: start from
    the interval's dense-grid maximum, then polish every core whose
    derivative changes sign around its own grid argmax, keeping strict
    improvements in core order.  All bracketed cores of the chunk refine
    at once by bisection: the derivative crosses + -> - inside
    ``[t_lo, t_hi]``, and the temperature is flat at the root, so the
    residual time error stays far below the 1e-9 parity budget the
    scalar Brent route is held to.
    """
    cores = model.network.core_nodes
    lam = model.eigen.eigenvalues
    w_cores = model.eigen.w[cores, :]
    modal = stack.modal()[chunk]
    kc, zc, gc, cc = temps.shape
    val, core, when = _grid_winners(times, temps)

    # Bracket candidates: each core's own grid argmax and its neighbours.
    j_star = np.argmax(temps, axis=2)  # (k, Z, C)
    j_lo = np.maximum(j_star - 1, 0)
    j_hi = np.minimum(j_star + 1, gc - 1)
    t_lo = np.take_along_axis(times, j_lo.reshape(kc, zc, -1), axis=2).reshape(
        kc, zc, cc
    )
    t_hi = np.take_along_axis(times, j_hi.reshape(kc, zc, -1), axis=2).reshape(
        kc, zc, cc
    )
    # Derivative of core c at time t: sum_m (W[c, m] * modal_m) * lam_m * e^{lam_m t}.
    modal_c = w_cores[None, None, :, :] * modal[:, :, None, :]  # (k, Z, C, n)
    d_lo = np.sum(modal_c * lam * np.exp(lam * t_lo[..., None]), axis=3)
    d_hi = np.sum(modal_c * lam * np.exp(lam * t_hi[..., None]), axis=3)
    bracketed = (
        (d_lo > 0) & (d_hi < 0) & (t_hi > t_lo) & stack.mask[chunk][:, :, None]
    )

    ri, qi, ci = np.nonzero(bracketed)
    if ri.size:
        coeffs = modal_c[ri, qi, ci]  # (N, n)
        d_coeffs = coeffs * lam
        lo = t_lo[ri, qi, ci]
        hi = t_hi[ri, qi, ci]
        for _ in range(_REFINE_STEPS):
            mid = 0.5 * (lo + hi)
            rising = np.einsum("kn,kn->k", d_coeffs, np.exp(lam * mid[:, None])) > 0
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
        t_star = 0.5 * (lo + hi)
        refined = stack.t_inf[chunk][ri, qi, cores[ci]] + np.einsum(
            "kn,kn->k", coeffs, np.exp(lam * t_star[:, None])
        )
        # Strict improvement in core order == the first core holding the
        # largest refined value, if that value beats the grid maximum.
        cand_val = np.full((kc, zc, cc), -np.inf)
        cand_t = np.zeros((kc, zc, cc))
        cand_val[ri, qi, ci] = refined
        cand_t[ri, qi, ci] = t_star
        c_best = cand_val.argmax(axis=2)[:, :, None]
        best = np.take_along_axis(cand_val, c_best, axis=2)[:, :, 0]
        better = best > val
        val = np.where(better, best, val)
        core = np.where(better, c_best[:, :, 0], core)
        when = np.where(better, np.take_along_axis(cand_t, c_best, axis=2)[:, :, 0], when)
    return val, core, when


def peak_temperature_batch(
    model: ThermalModel,
    schedules,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> list[PeakResult]:
    """Stable-status peaks of K arbitrary schedules in one vectorized pass.

    The batched counterpart of :func:`repro.thermal.peak.peak_temperature`:
    candidates that are step-up take the Theorem-1 fast path (batched),
    the rest get the dense-grid + bisection extrema search with the grids
    for the whole batch evaluated at once.  Results land in input order.
    """
    schedules = tuple(schedules)
    if not schedules:
        return []

    results: list[PeakResult | None] = [None] * len(schedules)
    general_idx = list(range(len(schedules)))
    if stepup_fast_path:
        stepup = [is_step_up(s) for s in schedules]
        general_idx = [i for i in general_idx if not stepup[i]]
        stepup_idx = [i for i in range(len(schedules)) if stepup[i]]
        if stepup_idx:
            fast = stepup_peak_temperature_batch(
                model, [schedules[i] for i in stepup_idx], check=False
            )
            for i, res in zip(stepup_idx, fast):
                results[i] = res
    if not general_idx:
        return results  # type: ignore[return-value]

    stack = _solve_stack(model, [schedules[i] for i in general_idx])
    on_core = np.arange(model.network.core_nodes.shape[0])

    for chunk, times, temps in _grid_chunks(stack, model, grid_per_interval):
        mask = stack.mask[chunk]
        if refine:
            val, core, when = _refine_interval_best(stack, model, times, temps, chunk)
        else:
            val, core, when = _grid_winners(times, temps)
        # The earliest interval holding the largest value wins.
        q = np.argmax(np.where(mask, val, -np.inf), axis=1)
        rows = np.arange(len(q))
        best_val = val[rows, q]
        best_core = core[rows, q]
        best_time = stack.starts[chunk][rows, q] + when[rows, q]
        core_peaks = np.where(mask[:, :, None], temps.max(axis=2), -np.inf).max(axis=1)
        core_peaks = np.maximum(
            core_peaks, best_val[:, None] * (on_core == best_core[:, None])
        )
        base = chunk.start or 0
        for i in rows:
            results[general_idx[base + i]] = PeakResult(
                value=float(best_val[i]),
                core=int(best_core[i]),
                time=float(best_time[i]),
                core_peaks=core_peaks[i].copy(),
            )
    return results  # type: ignore[return-value]
