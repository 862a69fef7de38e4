"""Tests for the ideal continuous relaxation."""

import numpy as np
import pytest

from repro.algorithms.continuous import continuous_assignment
from repro.platform import paper_platform


class TestMotivationNumbers:
    def test_paper_3core_voltages(self):
        p = paper_platform(3, t_max_c=65.0)
        ca = continuous_assignment(p)
        assert ca.voltages == pytest.approx([1.2085, 1.1748, 1.2085], abs=2e-4)
        assert ca.throughput == pytest.approx(1.1972, abs=2e-4)

    def test_unclamped_cores_sit_at_threshold(self):
        p = paper_platform(3, t_max_c=65.0)
        ca = continuous_assignment(p)
        assert not ca.clamped.any()
        assert np.allclose(ca.core_theta, 30.0, atol=1e-9)

    def test_middle_core_lower_voltage(self):
        for n in (3, 9):
            p = paper_platform(n, t_max_c=60.0)
            ca = continuous_assignment(p)
            counts = p.floorplan.neighbor_counts()
            # more neighbours -> thermally worse -> lower ideal voltage
            order = np.argsort(counts)
            v_sorted = ca.voltages[order]
            assert v_sorted[0] >= v_sorted[-1] - 1e-12


class TestClamping:
    def test_high_clamp_at_generous_threshold(self):
        # A very high threshold pushes every budget past v_max.
        p = paper_platform(2, t_max_c=120.0)
        ca = continuous_assignment(p)
        assert ca.clamped.all()
        assert np.allclose(ca.voltages, 1.3)
        # Clamped cores run cooler than the threshold.
        assert np.all(ca.core_theta <= p.theta_max + 1e-9)

    def test_low_clamp_at_tight_threshold(self):
        # Find a threshold tight enough that some budget falls below v_min
        # while the platform stays feasible (all-low fits).
        for t_max in np.arange(38.8, 40.2, 0.05):
            p = paper_platform(3, t_max_c=float(t_max))
            if p.model.steady_state_cores(np.full(3, 0.6)).max() > p.theta_max:
                continue
            ca = continuous_assignment(p)
            if ca.clamped.any():
                assert np.all(ca.voltages >= 0.6 - 1e-12)
                assert np.all(ca.core_theta <= p.theta_max + 1e-9)
                return
        pytest.skip("no low-clamp threshold found in the scanned range")

    def test_infeasible_threshold_raises(self):
        from repro.errors import InfeasibleError

        p = paper_platform(3, t_max_c=37.0)  # all-low already exceeds theta_max
        assert p.model.steady_state_cores(np.full(3, 0.6)).max() > p.theta_max
        with pytest.raises(InfeasibleError):
            continuous_assignment(p)

    def test_partial_clamp_consistency(self):
        # Find a threshold where only some cores clamp; verify the free
        # cores sit exactly at theta_max.
        for t_max in np.arange(66.0, 90.0, 1.0):
            p = paper_platform(3, t_max_c=float(t_max))
            ca = continuous_assignment(p)
            if ca.clamped.any() and not ca.clamped.all():
                free = ~ca.clamped
                assert np.allclose(ca.core_theta[free], p.theta_max, atol=1e-9)
                # Verify the whole operating point against a direct solve.
                theta = p.model.steady_state_cores(ca.voltages)
                assert np.allclose(theta, ca.core_theta, atol=1e-8)
                break
        else:
            pytest.skip("no partial-clamp threshold found in the scanned range")

    def test_throughput_is_mean_voltage(self):
        p = paper_platform(6, t_max_c=60.0)
        ca = continuous_assignment(p)
        assert ca.throughput == pytest.approx(float(np.mean(ca.voltages)))


class TestMonotonicity:
    def test_throughput_grows_with_threshold(self):
        thr = []
        for t_max in (50.0, 55.0, 60.0, 65.0):
            p = paper_platform(3, t_max_c=t_max)
            thr.append(continuous_assignment(p).throughput)
        assert all(b >= a - 1e-12 for a, b in zip(thr, thr[1:]))

    def test_more_cores_lower_per_core_budget(self):
        v3 = continuous_assignment(paper_platform(3, t_max_c=60.0)).throughput
        v9 = continuous_assignment(paper_platform(9, t_max_c=60.0)).throughput
        assert v9 <= v3 + 1e-12
