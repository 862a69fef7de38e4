"""Tests for the section-V oscillation machinery."""

import numpy as np
import pytest

from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.oscillation import (
    _adjusted_ratio_rows,
    adjusted_high_ratios,
    build_oscillating_schedule,
    choose_m,
    effective_throughput,
    max_m_bound,
    plan_modes,
)
from repro.errors import SolverError
from repro.platform import paper_platform
from repro.schedule.properties import is_step_up, throughput


@pytest.fixture(scope="module")
def planned():
    p = paper_platform(3, n_levels=2, t_max_c=65.0)
    cont = continuous_assignment(p)
    return p, plan_modes(p, cont.voltages)


class TestPlanModes:
    def test_targets_reproduced(self, planned):
        p, plan = planned
        realized = plan.v_low * (1 - plan.high_ratio) + plan.v_high * plan.high_ratio
        assert np.allclose(realized, plan.target_voltages, atol=1e-12)

    def test_table2_ratios(self, planned):
        _, plan = planned
        assert plan.high_ratio == pytest.approx([0.8693, 0.8211, 0.8693], abs=1e-4)

    def test_all_cores_oscillating(self, planned):
        _, plan = planned
        assert plan.oscillating.all()

    def test_exact_level_not_oscillating(self):
        p = paper_platform(3, n_levels=2, t_max_c=65.0)
        plan = plan_modes(p, np.array([0.6, 1.3, 0.9]))
        assert not plan.oscillating[0]  # exact low level
        assert not plan.oscillating[1]  # exact high level
        assert plan.oscillating[2]


class TestAdjustedRatios:
    def test_zero_tau_no_change(self, planned):
        p, plan = planned
        p0 = paper_platform(3, n_levels=2, t_max_c=65.0, tau=0.0)
        ratios = adjusted_high_ratios(p0, plan, m=10, period=0.02)
        assert np.allclose(ratios, plan.high_ratio)

    def test_inflation_grows_with_m(self, planned):
        p, plan = planned
        r1 = adjusted_high_ratios(p, plan, m=1, period=0.02)
        r5 = adjusted_high_ratios(p, plan, m=5, period=0.02)
        assert np.all(r5 >= r1)
        assert np.all(r1 >= plan.high_ratio)

    def test_matches_delta_formula(self, planned):
        p, plan = planned
        m, period = 3, 0.02
        ratios = adjusted_high_ratios(p, plan, m, period)
        for i in range(3):
            delta = p.overhead.delta(plan.v_low[i], plan.v_high[i])
            expected = min(1.0, plan.high_ratio[i] + m * delta / period)
            assert ratios[i] == pytest.approx(expected)

    def test_scan_rows_equal_per_m_loop(self, planned):
        # The m-scan prices every m's ratios at once; each row must equal
        # the per-core loop bit for bit, clamping at 1 included.
        p, plan = planned
        period = 0.02
        ms = [0, 1, 2, 7, 64, 500, 5000, 50000]
        rows = _adjusted_ratio_rows(p, plan, ms, period)
        clamped = False
        for m, row in zip(ms, rows):
            expected = plan.high_ratio.copy()
            if m > 0:
                for i in np.where(plan.oscillating)[0]:
                    delta = p.overhead.delta(plan.v_low[i], plan.v_high[i])
                    expected[i] = min(1.0, expected[i] + m * delta / period)
            assert row.tobytes() == expected.tobytes()
            clamped |= bool(np.any(row == 1.0) and m > 0)
        assert clamped


class TestMaxMBound:
    def test_bound_positive_and_capped(self, planned):
        p, plan = planned
        m = max_m_bound(p, plan, period=0.02, cap=64)
        assert 1 <= m <= 64

    def test_uncapped_matches_overhead_math(self, planned):
        p, plan = planned
        m = max_m_bound(p, plan, period=0.02, cap=10**9)
        expected = min(
            p.overhead.max_m_for_core(
                (1 - plan.high_ratio[i]) * 0.02, plan.v_low[i], plan.v_high[i]
            )
            for i in range(3)
        )
        assert m == expected


class TestBuildSchedule:
    def test_cycle_period(self, planned):
        _, plan = planned
        s = build_oscillating_schedule(plan, plan.high_ratio, 0.02, 4)
        assert s.period == pytest.approx(0.005)
        assert is_step_up(s)

    def test_invalid_m(self, planned):
        _, plan = planned
        with pytest.raises(SolverError):
            build_oscillating_schedule(plan, plan.high_ratio, 0.02, 0)


class TestChooseM:
    def test_returns_scan_history(self, planned):
        p, plan = planned
        m_opt, sched, history = choose_m(p, plan, period=0.02, m_cap=16)
        assert len(history) >= 1
        ms = [m for m, _ in history]
        assert ms == sorted(ms)
        assert m_opt in ms
        # The chosen m minimizes the scanned peaks.
        peaks = dict(history)
        assert peaks[m_opt] == pytest.approx(min(p_ for _, p_ in history))

    def test_no_overhead_prefers_largest_m(self):
        # Without transition cost, Theorem 5 makes more oscillation always
        # at least as good.
        p = paper_platform(3, n_levels=2, t_max_c=65.0, tau=0.0)
        cont = continuous_assignment(p)
        plan = plan_modes(p, cont.voltages)
        m_opt, _, history = choose_m(p, plan, period=0.02, m_cap=8)
        peaks = [pk for _, pk in history]
        assert np.all(np.diff(peaks) <= 1e-9)
        assert m_opt == history[-1][0]

    def test_m_step_coarsens_scan(self, planned):
        p, plan = planned
        _, _, history = choose_m(p, plan, period=0.02, m_cap=16, m_step=4)
        assert [m for m, _ in history] == [1, 5, 9, 13]


class TestEffectiveThroughput:
    def test_no_overhead_equals_eq5(self, planned):
        _, plan = planned
        p0 = paper_platform(3, n_levels=2, t_max_c=65.0, tau=0.0)
        s = build_oscillating_schedule(plan, plan.high_ratio, 0.02, 2)
        assert effective_throughput(s, p0) == pytest.approx(throughput(s))

    def test_overhead_reduces_throughput(self, planned):
        p, plan = planned
        s = build_oscillating_schedule(plan, plan.high_ratio, 0.02, 2)
        assert effective_throughput(s, p) < throughput(s)

    def test_adjusted_ratios_restore_target(self, planned):
        # The whole point of the delta compensation: with inflated ratios,
        # the net throughput matches the unadjusted schedule's gross one.
        p, plan = planned
        m, period = 4, 0.02
        ratios = adjusted_high_ratios(p, plan, m, period)
        sched = build_oscillating_schedule(plan, ratios, period, m)
        target = throughput(
            build_oscillating_schedule(plan, plan.high_ratio, period, m)
        )
        net = effective_throughput(sched, p)
        assert net == pytest.approx(target, abs=1e-6)
