"""Schedule constructors.

The central builder is :func:`from_core_timelines`: given each core's
private (length, voltage) sequence over a common period, take the union of
all switch instants and emit one state interval per gap — the canonical
state-interval representation the thermal solvers consume.

On top of it we provide the shapes the paper uses:

* :func:`constant_schedule` — one mode per core (the EXS/LNS world),
* :func:`two_mode_schedule` — per-core low-then-high pairs (the step-up
  building block of AO),
* :func:`phase_schedule` — per-core high intervals placed at chosen start
  offsets (Fig. 3's ``x_i`` sweep, PCO's shifts),
* :func:`random_schedule` / :func:`random_stepup_schedule` — workload
  generators for the property tests and Figs. 4-5.

:class:`TwoModeCandidates` is the array form of a *set* of
:func:`two_mode_schedule` results sharing one mode pair: the candidate
sets AO's m-scan and TPT loops price, described without building a
schedule object per candidate.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.intervals import MIN_INTERVAL, CoreSegment, StateInterval
from repro.schedule.periodic import PeriodicSchedule

__all__ = [
    "from_core_timelines",
    "constant_schedule",
    "two_mode_schedule",
    "TwoModeCandidates",
    "phase_schedule",
    "random_schedule",
    "random_stepup_schedule",
]


def _coerce_timeline(timeline) -> list[CoreSegment]:
    segs = []
    for item in timeline:
        if isinstance(item, CoreSegment):
            segs.append(item)
        else:
            length, voltage = item
            segs.append(CoreSegment(length=float(length), voltage=float(voltage)))
    if not segs:
        raise ScheduleError("each core timeline needs at least one segment")
    return segs


def from_core_timelines(
    timelines: Sequence[Sequence],
    atol: float = 1e-9,
) -> PeriodicSchedule:
    """Combine per-core timelines into a state-interval schedule.

    Parameters
    ----------
    timelines:
        One sequence per core of ``CoreSegment`` or ``(length, voltage)``
        pairs.  All cores must cover the same total period (within
        ``atol`` relative tolerance); tiny rounding drift is absorbed by
        stretching the final segment.
    """
    if not timelines:
        raise ScheduleError("need at least one core timeline")
    per_core = [_coerce_timeline(t) for t in timelines]
    periods = [sum(s.length for s in segs) for segs in per_core]
    period = periods[0]
    for i, p in enumerate(periods[1:], start=1):
        if abs(p - period) > atol * max(period, 1.0):
            raise ScheduleError(
                f"core {i} period {p} != core 0 period {period}"
            )

    # Union of all switch instants.
    cuts = {0.0, period}
    for segs in per_core:
        t = 0.0
        for seg in segs[:-1]:
            t += seg.length
            cuts.add(min(t, period))
    grid = np.array(sorted(cuts))
    # Drop numerically-duplicate cuts.
    keep = np.concatenate([[True], np.diff(grid) > MIN_INTERVAL])
    grid = grid[keep]
    if grid[-1] < period - MIN_INTERVAL:
        grid = np.append(grid, period)

    # Voltage of each core within each gap.
    intervals = []
    mids = 0.5 * (grid[:-1] + grid[1:])
    core_volts = np.empty((len(mids), len(per_core)))
    for c, segs in enumerate(per_core):
        ends = np.cumsum([s.length for s in segs])
        ends[-1] = period  # absorb rounding drift
        idx = np.searchsorted(ends, mids, side="left")
        idx = np.clip(idx, 0, len(segs) - 1)
        core_volts[:, c] = [segs[k].voltage for k in idx]
    for q in range(len(mids)):
        intervals.append(
            StateInterval(length=float(grid[q + 1] - grid[q]), voltages=tuple(core_volts[q]))
        )
    return PeriodicSchedule(tuple(intervals))


def constant_schedule(voltages, period: float = 1.0) -> PeriodicSchedule:
    """Single state interval: every core at a constant mode."""
    return PeriodicSchedule(
        (StateInterval(length=float(period), voltages=tuple(float(v) for v in voltages)),)
    )


def two_mode_schedule(
    v_low,
    v_high,
    high_ratio,
    period: float,
    high_first: bool = False,
) -> PeriodicSchedule:
    """Per-core two-mode schedule: low for ``(1-r)t_p`` then high for ``r t_p``.

    This is the step-up building block of AO: with ``high_first=False``
    every core's voltage is non-decreasing over the period, so the result
    is a step-up schedule regardless of per-core ratios.

    Parameters
    ----------
    v_low, v_high:
        Per-core arrays (or scalars) of the two modes.  Where
        ``v_low == v_high`` or the ratio is 0/1 the core degenerates to a
        constant mode.
    high_ratio:
        Per-core array (or scalar) in [0, 1]: fraction of the period spent
        at ``v_high``.
    period:
        Schedule period ``t_p`` in seconds.
    """
    v_low = np.atleast_1d(np.asarray(v_low, dtype=float))
    v_high = np.atleast_1d(np.asarray(v_high, dtype=float))
    ratio = np.atleast_1d(np.asarray(high_ratio, dtype=float))
    n = max(v_low.size, v_high.size, ratio.size)
    v_low, v_high, ratio = (
        np.broadcast_to(v_low, n).astype(float),
        np.broadcast_to(v_high, n).astype(float),
        np.broadcast_to(ratio, n).astype(float),
    )
    if np.any((ratio < -1e-12) | (ratio > 1 + 1e-12)):
        raise ScheduleError(f"high_ratio must be within [0, 1], got {ratio}")
    if np.any(v_high < v_low):
        raise ScheduleError("two_mode_schedule requires v_high >= v_low per core")
    ratio = np.clip(ratio, 0.0, 1.0)
    if period <= 0:
        raise ScheduleError(f"period must be > 0, got {period}")

    timelines = []
    for c in range(n):
        t_high = ratio[c] * period
        t_low = period - t_high
        segs: list[tuple[float, float]] = []
        first = (t_high, v_high[c]) if high_first else (t_low, v_low[c])
        second = (t_low, v_low[c]) if high_first else (t_high, v_high[c])
        for length, v in (first, second):
            if length >= MIN_INTERVAL:
                segs.append((length, v))
        if not segs:  # degenerate: zero-length everything cannot happen (period > 0)
            segs.append((period, v_low[c]))
        timelines.append(segs)
    return from_core_timelines(timelines)


class TwoModeCandidates:
    """K low-then-high two-mode schedules over one mode pair, as arrays.

    Candidate ``k`` is ``two_mode_schedule(v_low, v_high, high_ratio[k],
    cycle[k])``; :attr:`intervals` yields exactly its state intervals,
    bit for bit, without building the schedule objects — the form AO's
    m-scan and TPT/fill loops price (every candidate is step-up by
    construction).  Inputs are validated once per batch, raising the
    same :class:`~repro.errors.ScheduleError` conditions as
    :func:`two_mode_schedule`.

    Parameters
    ----------
    v_low, v_high:
        ``(n,)`` per-core modes (scalars broadcast).
    high_ratio:
        ``(K, n)`` fraction of each candidate's period spent at ``v_high``.
    cycle:
        ``(K,)`` (or scalar) period of each candidate in seconds.
    """

    def __init__(self, v_low, v_high, high_ratio, cycle) -> None:
        ratio = np.asarray(high_ratio, dtype=float)
        if ratio.ndim != 2:
            raise ScheduleError(f"high_ratio must be (K, n), got shape {ratio.shape}")
        k, n = ratio.shape
        v_low = np.broadcast_to(np.asarray(v_low, dtype=float), n).copy()
        v_high = np.broadcast_to(np.asarray(v_high, dtype=float), n).copy()
        cycle = np.broadcast_to(np.asarray(cycle, dtype=float), k).copy()
        if np.any((ratio < -1e-12) | (ratio > 1 + 1e-12)):
            raise ScheduleError(f"high_ratio must be within [0, 1], got {ratio}")
        if np.any(v_high < v_low):
            raise ScheduleError("two_mode_schedule requires v_high >= v_low per core")
        if np.any(cycle <= 0):
            raise ScheduleError(f"period must be > 0, got {cycle[cycle <= 0][0]}")
        if not np.all(np.isfinite(cycle)):
            raise ScheduleError(f"segment length must be >= {MIN_INTERVAL}, got "
                                f"{cycle[~np.isfinite(cycle)][0]}")
        self.v_low, self.v_high = v_low, v_high
        self.high_ratio = np.clip(ratio, 0.0, 1.0)
        self.cycle = cycle

        # Per-core segments as two_mode_schedule emits them: low then
        # high, each kept when at least MIN_INTERVAL long; a core with
        # neither runs v_low for the whole cycle.
        period = cycle[:, None]
        t_high = self.high_ratio * period
        t_low = period - t_high
        has_low = t_low >= MIN_INTERVAL
        has_high = t_high >= MIN_INTERVAL
        # Only the voltages of emitted segments are checked, as there.
        for volts, used in ((v_low, has_low | ~has_high), (v_high, has_high)):
            vals = np.broadcast_to(volts, used.shape)[used]
            bad = ~(np.isfinite(vals) & (vals >= 0))
            if bad.any():
                raise ScheduleError(f"segment voltage must be finite >= 0, got {vals[bad][0]}")
        # from_core_timelines: each core's period is the sum of its
        # segments, and core 0's is the reference the others must match.
        both = has_low & has_high
        core_period = np.where(
            both, t_low + t_high,
            np.where(has_low, t_low, np.where(has_high, t_high, period)),
        )
        ref = core_period[:, 0]
        bad = np.abs(core_period - ref[:, None]) > 1e-9 * np.maximum(ref, 1.0)[:, None]
        if bad.any():
            kb, cb = np.argwhere(bad)[0]
            raise ScheduleError(
                f"core {cb} period {core_period[kb, cb]} != core 0 period {ref[kb]}"
            )
        self._t_low, self._has_low, self._has_high = t_low, has_low, has_high
        self._both, self._ref = both, ref

    def __len__(self) -> int:
        return self.high_ratio.shape[0]

    @cached_property
    def intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lengths (K, Z), volts (K, Z, n), z (K,))``, zero-padded to ``Z``.

        Row ``k`` holds the ``z[k]`` state intervals of candidate ``k``
        exactly as :func:`from_core_timelines` derives them: the union
        of switch instants, cuts closer than ``MIN_INTERVAL`` to their
        predecessor dropped, core 0's period as the period end.
        """
        k = len(self)
        ref = self._ref[:, None]
        # Switch instants: 0, the period and each two-segment core's
        # low->high cut.  Cores without a cut contribute a duplicate of
        # the period, which the near-duplicate filter drops like the set
        # union does.
        cuts = np.where(self._both, np.minimum(self._t_low, ref), ref)
        grid = np.sort(np.concatenate([np.zeros((k, 1)), ref, cuts], axis=1), axis=1)
        keep = np.ones(grid.shape, dtype=bool)
        keep[:, 1:] = np.diff(grid, axis=1) > MIN_INTERVAL
        grid = np.take_along_axis(grid, np.argsort(~keep, axis=1, kind="stable"), axis=1)
        n_kept = keep.sum(axis=1)
        # A chain of near-duplicate cuts can drop the period end itself;
        # it is re-appended when the last kept instant falls short of it.
        # (Dropping needs a dropped cut, so there is a free column.)
        append = grid[np.arange(k), n_kept - 1] < self._ref - MIN_INTERVAL
        grid[append, n_kept[append]] = self._ref[append]
        z = n_kept + append - 1
        z_max = int(z.max()) if k else 0

        mask = np.arange(z_max)[None, :] < z[:, None]
        lengths = np.where(mask, grid[:, 1 : z_max + 1] - grid[:, :z_max], 0.0)
        mids = 0.5 * (grid[:, :z_max] + grid[:, 1 : z_max + 1])
        # A two-segment core runs high once the midpoint passes its cut
        # (searchsorted over the segment ends); a one-segment core holds
        # its only mode.
        high = np.where(
            self._both[:, None, :],
            mids[:, :, None] > self._t_low[:, None, :],
            (self._has_high & ~self._has_low)[:, None, :],
        )
        volts = np.where(high, self.v_high, self.v_low)
        volts = np.where(mask[:, :, None], volts, 0.0)
        return lengths, volts, z


def phase_schedule(
    v_low,
    v_high,
    high_length,
    high_start,
    period: float,
) -> PeriodicSchedule:
    """Per-core schedules with the high-voltage burst at a chosen offset.

    Core ``c`` runs ``v_low[c]`` except during
    ``[high_start[c], high_start[c] + high_length[c])`` (wrapped around the
    period), where it runs ``v_high[c]``.  This is exactly the family swept
    in Fig. 3 and searched by PCO.
    """
    v_low = np.atleast_1d(np.asarray(v_low, dtype=float))
    v_high = np.atleast_1d(np.asarray(v_high, dtype=float))
    h_len = np.atleast_1d(np.asarray(high_length, dtype=float))
    h_start = np.atleast_1d(np.asarray(high_start, dtype=float))
    n = max(v_low.size, v_high.size, h_len.size, h_start.size)
    v_low = np.broadcast_to(v_low, n).astype(float)
    v_high = np.broadcast_to(v_high, n).astype(float)
    h_len = np.broadcast_to(h_len, n).astype(float)
    h_start = np.broadcast_to(h_start, n).astype(float)
    if period <= 0:
        raise ScheduleError(f"period must be > 0, got {period}")
    if np.any((h_len < 0) | (h_len > period + 1e-12)):
        raise ScheduleError("high_length must lie in [0, period]")

    timelines = []
    for c in range(n):
        start = float(h_start[c]) % period
        length = min(float(h_len[c]), period)
        segs: list[tuple[float, float]] = []
        if length < MIN_INTERVAL:
            segs = [(period, v_low[c])]
        elif length > period - MIN_INTERVAL:
            segs = [(period, v_high[c])]
        else:
            end = start + length
            if end <= period + MIN_INTERVAL:
                end = min(end, period)
                if start >= MIN_INTERVAL:
                    segs.append((start, v_low[c]))
                segs.append((end - start, v_high[c]))
                if period - end >= MIN_INTERVAL:
                    segs.append((period - end, v_low[c]))
            else:  # wraps around the period end
                wrap = end - period
                segs.append((wrap, v_high[c]))
                segs.append((start - wrap, v_low[c]))
                segs.append((period - start, v_high[c]))
        timelines.append(segs)
    return from_core_timelines(timelines)


def random_schedule(
    n_cores: int,
    rng: np.random.Generator,
    levels: Sequence[float] = (0.6, 0.8, 1.0, 1.2, 1.3),
    max_segments: int = 4,
    period: float | None = None,
) -> PeriodicSchedule:
    """Random periodic schedule (workload generator for property tests)."""
    if n_cores < 1 or max_segments < 1:
        raise ScheduleError("need n_cores >= 1 and max_segments >= 1")
    if period is None:
        period = float(rng.uniform(0.05, 10.0))
    timelines = []
    for _ in range(n_cores):
        k = int(rng.integers(1, max_segments + 1))
        weights = rng.dirichlet(np.ones(k))
        weights = np.maximum(weights, 1e-3)
        weights /= weights.sum()
        volts = rng.choice(np.asarray(levels, dtype=float), size=k)
        timelines.append([(float(w * period), float(v)) for w, v in zip(weights, volts)])
    return from_core_timelines(timelines)


def random_stepup_schedule(
    n_cores: int,
    rng: np.random.Generator,
    levels: Sequence[float] = (0.6, 0.8, 1.0, 1.2, 1.3),
    max_segments: int = 4,
    period: float | None = None,
) -> PeriodicSchedule:
    """Random *step-up* schedule: per-core voltages sorted non-decreasing."""
    sched = random_schedule(n_cores, rng, levels=levels, max_segments=max_segments, period=period)
    from repro.schedule.transforms import step_up

    return step_up(sched)
