"""Section V machinery: mode planning, overhead compensation, choosing m.

Pipeline (mirroring Algorithm 2's first half):

1. :func:`plan_modes` — from the ideal continuous voltages, pick the two
   neighboring discrete modes per core and the throughput-preserving time
   ratios (eq. (11), justified by Theorems 3/4).
2. :func:`adjusted_high_ratios` — stretch the high mode by ``delta`` per
   oscillation cycle to pay for the DVFS clock-halt ``tau`` (section V).
3. :func:`build_oscillating_schedule` — emit the m-oscillating *step-up*
   schedule: per cycle (period ``t_p / m``), every core runs low then high.
4. :func:`choose_m` — linear scan ``m = 1 .. M`` (the overhead bound of
   :class:`~repro.power.dvfs.TransitionOverhead`), evaluating each
   candidate's stable peak through the Theorem-1 fast path, and keeping
   the minimizer.  Without overhead the peak is monotone decreasing in
   ``m`` (Theorem 5); with overhead the high-ratio inflation turns the
   scan into a genuine tradeoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import ThermalEngine, as_platform
from repro.errors import SolverError
from repro.platform import Platform
from repro.schedule.builders import TwoModeCandidates, two_mode_schedule
from repro.schedule.periodic import PeriodicSchedule

__all__ = [
    "ModePlan",
    "plan_modes",
    "adjusted_high_ratios",
    "build_oscillating_schedule",
    "choose_m",
    "effective_throughput",
]

#: Hard cap on the m scan, guarding against tau -> 0 blowing the bound up.
DEFAULT_M_CAP = 256


@dataclass(frozen=True)
class ModePlan:
    """Per-core two-neighboring-mode decomposition of a continuous point.

    Attributes
    ----------
    v_low, v_high:
        ``(n_cores,)`` chosen discrete modes (equal for constant cores).
    high_ratio:
        ``(n_cores,)`` fraction of time at ``v_high`` that reproduces the
        continuous throughput (eq. (11)), before overhead compensation.
    target_voltages:
        The continuous voltages the plan realizes.
    """

    v_low: np.ndarray
    v_high: np.ndarray
    high_ratio: np.ndarray
    target_voltages: np.ndarray

    @property
    def oscillating(self) -> np.ndarray:
        """Mask of cores that genuinely use two distinct modes."""
        return (self.v_high > self.v_low + 1e-12) & (self.high_ratio > 1e-12) & (
            self.high_ratio < 1 - 1e-12
        )

    @property
    def n_cores(self) -> int:
        """Number of cores planned."""
        return self.v_low.shape[0]


def plan_modes(platform: Platform | ThermalEngine, voltages: np.ndarray) -> ModePlan:
    """Decompose continuous voltages onto the platform's discrete ladder.

    A target of exactly 0 means the core idles (power-gated) and is planned
    as a constant zero-voltage mode.
    """
    platform = as_platform(platform)
    voltages = np.asarray(voltages, dtype=float)
    v_low = np.empty_like(voltages)
    v_high = np.empty_like(voltages)
    ratio = np.empty_like(voltages)
    for i, v in enumerate(voltages):
        if v == 0.0:
            v_low[i] = v_high[i] = 0.0
            ratio[i] = 1.0
            continue
        lo, hi, _r_l, r_h = platform.ladder.split_ratios(float(v))
        v_low[i], v_high[i], ratio[i] = lo, hi, r_h
    return ModePlan(
        v_low=v_low, v_high=v_high, high_ratio=ratio, target_voltages=voltages.copy()
    )


def adjusted_high_ratios(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    m: int,
    period: float,
) -> np.ndarray:
    """High-mode ratios inflated to pay the transition overhead at this m.

    Per period each oscillating core performs ``m`` cycles; each cycle
    needs ``delta_i`` extra high time (section V), so
    ``r_H' = r_H + m * delta_i / period``.  Ratios are clamped to 1; cores
    whose low interval cannot host the transitions any more are reported
    by :func:`max_m_bound` — callers should not exceed it.
    """
    return _adjusted_ratio_rows(platform, plan, [m], period)[0]


def _adjusted_ratio_rows(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    ms,
    period: float,
) -> np.ndarray:
    """:func:`adjusted_high_ratios` for every m of ``ms`` at once: ``(len(ms), n)``."""
    platform = as_platform(platform)
    ms = np.asarray(ms)
    ratios = np.tile(plan.high_ratio, (ms.size, 1))
    if platform.overhead.tau == 0:
        return ratios
    paid = ms > 0
    for i in np.where(plan.oscillating)[0]:
        delta = platform.overhead.delta(plan.v_low[i], plan.v_high[i])
        ratios[paid, i] = np.minimum(1.0, ratios[paid, i] + ms[paid] * delta / period)
    return ratios


def max_m_bound(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    period: float,
    cap: int = DEFAULT_M_CAP,
) -> int:
    """Chip-wide oscillation bound ``M = min_i M_i`` (section V), capped."""
    platform = as_platform(platform)
    cores = []
    for i in np.where(plan.oscillating)[0]:
        t_low = (1.0 - plan.high_ratio[i]) * period
        cores.append((t_low, float(plan.v_low[i]), float(plan.v_high[i])))
    m = platform.overhead.max_m(cores)
    return max(1, min(m, cap))


def build_oscillating_schedule(
    plan: ModePlan,
    high_ratio,
    period: float,
    m: int,
) -> PeriodicSchedule:
    """The m-oscillating step-up schedule for the given (possibly adjusted) ratios.

    One emitted period is a single cycle of length ``period / m`` — every
    core low first, then high — which repeated periodically realizes the
    paper's "divide each interval into m and interleave" schedule while
    staying step-up (Theorem 1 applies to each cycle).
    """
    if m < 1:
        raise SolverError(f"m must be >= 1, got {m}")
    cycle = period / m
    return two_mode_schedule(plan.v_low, plan.v_high, np.asarray(high_ratio), cycle)


def choose_m(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    period: float,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
    batch: bool = True,
) -> tuple[int, PeriodicSchedule, list[tuple[int, float]]]:
    """Linear scan over m; return the peak-minimizing oscillation count.

    Returns ``(m_opt, schedule_at_m_opt, history)`` where history holds
    the scanned ``(m, peak)`` pairs for diagnostics and Fig. 5-style plots.

    With ``batch`` (default) the whole sweep is priced through the batched
    stable-status engine in one call, straight from the candidates'
    arrays (:class:`~repro.schedule.builders.TwoModeCandidates`); only
    the selected m's schedule is built.  ``batch=False`` keeps the scalar
    per-candidate loop over schedule objects (the two paths select the
    same m).
    """
    engine = ThermalEngine.ensure(platform)
    m_max = max_m_bound(engine, plan, period, cap=m_cap)
    candidates = list(range(1, m_max + 1, max(1, m_step)))
    ratios = _adjusted_ratio_rows(engine, plan, candidates, period)
    if batch:
        cands = TwoModeCandidates(
            plan.v_low, plan.v_high, ratios, [period / m for m in candidates]
        )
        peaks = [r.value for r in engine.stepup_peak_batch(cands)]
    else:
        peaks = [
            engine.stepup_peak(build_oscillating_schedule(plan, r, period, m)).value
            for m, r in zip(candidates, ratios)
        ]
    best, history = _select_m(candidates, peaks)
    m_opt = candidates[best]
    return m_opt, build_oscillating_schedule(plan, ratios[best], period, m_opt), history


def _select_m(candidates, peaks) -> tuple[int, list[tuple[int, float]]]:
    """Selection rule of :func:`choose_m`: first m whose peak strictly improves.

    Returns the winner's index into ``candidates`` and the scan history.
    """
    history: list[tuple[int, float]] = []
    best, best_peak = None, np.inf
    for i, (m, peak) in enumerate(zip(candidates, peaks)):
        history.append((m, peak))
        if peak < best_peak - 1e-12:
            best, best_peak = i, peak
    assert best is not None
    return best, history


def effective_throughput(
    schedule: PeriodicSchedule,
    platform: Platform | ThermalEngine,
    transitions_per_period: np.ndarray | None = None,
) -> float:
    """Eq.-5 throughput net of DVFS clock-halt losses.

    ``transitions_per_period[i]`` is the number of voltage switches core i
    performs per schedule period (2 for a two-mode cycle).  The work lost
    per switch is ``v * tau`` at the voltage ruling when the clock halts;
    following the paper's accounting we charge ``(v_H + v_L) * tau`` per
    up/down pair, i.e. ``tau * sum of the two voltages`` per two switches.
    """
    platform = as_platform(platform)
    volts = schedule.voltage_matrix
    lengths = schedule.lengths
    total_work = float((volts * lengths[:, None]).sum())
    tau = platform.overhead.tau
    if tau > 0:
        for i in range(schedule.n_cores):
            distinct = np.unique(volts[:, i])
            if distinct.size >= 2:
                pairs = 1.0  # one up/down pair per period for a two-mode cycle
                if transitions_per_period is not None:
                    pairs = transitions_per_period[i] / 2.0
                total_work -= pairs * tau * (distinct.max() + distinct.min())
    return total_work / (schedule.n_cores * schedule.period)
