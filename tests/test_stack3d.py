"""Tests for 3D stacking and dark-silicon scheduling."""

import numpy as np
import pytest

from repro.algorithms import ao, continuous_assignment
from repro.algorithms.dark import dark_silicon_ao
from repro.errors import FloorplanError, InfeasibleError, ThermalModelError
from repro.floorplan import Stack3D, grid_floorplan
from repro.platform import platform_3d, paper_platform
from repro.thermal.stack3d import build_3d_network
from repro.util.linalg import is_positive_definite, is_symmetric


class TestStack3D:
    def test_indexing_roundtrip(self):
        stack = Stack3D(base=grid_floorplan(2, 3), n_layers=3)
        assert stack.n_cores == 18
        for layer in range(3):
            for core in range(6):
                idx = stack.core_index(layer, core)
                assert stack.layer_of(idx) == (layer, core)

    def test_validation(self):
        with pytest.raises(FloorplanError):
            Stack3D(base=grid_floorplan(2, 2), n_layers=0)
        stack = Stack3D(base=grid_floorplan(2, 2), n_layers=2)
        with pytest.raises(FloorplanError):
            stack.core_index(2, 0)
        with pytest.raises(FloorplanError):
            stack.core_index(0, 4)
        with pytest.raises(FloorplanError):
            stack.layer_of(8)

    def test_describe(self):
        stack = Stack3D(base=grid_floorplan(1, 2), n_layers=2)
        assert "Stack3D" in stack.describe()


class TestBuild3DNetwork:
    def test_matrix_properties(self):
        stack = Stack3D(base=grid_floorplan(2, 2), n_layers=3)
        net = build_3d_network(stack)
        assert net.n_nodes == 12
        assert is_symmetric(net.conductance)
        assert is_positive_definite(net.conductance)

    def test_single_layer_matches_planar(self):
        from repro.thermal.rc import build_single_layer_network

        base = grid_floorplan(2, 2)
        stack_net = build_3d_network(Stack3D(base=base, n_layers=1))
        planar_net = build_single_layer_network(base)
        assert np.allclose(stack_net.conductance, planar_net.conductance)

    def test_validation(self):
        stack = Stack3D(base=grid_floorplan(2, 2), n_layers=2)
        with pytest.raises(ThermalModelError):
            build_3d_network(stack, g_interlayer=0.0)
        with pytest.raises(ThermalModelError):
            build_3d_network(stack, sidewall_fraction=1.5)

    def test_upper_layers_run_hotter(self):
        p = platform_3d(3, 2, 2, t_max_c=90.0)
        # Uniform power: steady temperatures rise with the layer index.
        theta = p.model.steady_state_cores(np.full(12, 0.8))
        per_layer = theta.reshape(3, 4).mean(axis=1)
        assert per_layer[0] < per_layer[1] < per_layer[2]


class TestPlatform3D:
    def test_ideal_budget_decreases_with_layers(self):
        thr = []
        for layers in (1, 2):
            p = platform_3d(layers, 2, 2, t_max_c=65.0)
            thr.append(continuous_assignment(p).throughput)
        assert thr[1] < thr[0]

    def test_upper_layer_lower_voltage(self):
        p = platform_3d(2, 2, 2, t_max_c=65.0)
        ca = continuous_assignment(p)
        v = ca.voltages.reshape(2, 4)
        assert v[1].mean() <= v[0].mean() + 1e-9

    def test_ao_on_feasible_stack(self):
        p = platform_3d(2, 2, 2, n_levels=2, t_max_c=65.0)
        r = ao(p, m_cap=24)
        assert r.feasible

    def test_infeasible_stack_raises(self):
        p = platform_3d(3, 2, 2, n_levels=2, t_max_c=65.0)
        with pytest.raises(InfeasibleError):
            continuous_assignment(p)


class TestDarkSilicon:
    def test_rescues_infeasible_stack(self):
        p = platform_3d(3, 2, 2, n_levels=2, t_max_c=65.0)
        r = dark_silicon_ao(p, m_cap=16)
        assert r.feasible
        assert len(r.details["dark_cores"]) >= 1
        # The gated cores really are off in the emitted schedule.
        volts = r.schedule.voltage_matrix
        for core in r.details["dark_cores"]:
            assert np.all(volts[:, core] == 0.0)

    def test_gates_upper_layers_first(self):
        p = platform_3d(3, 2, 2, n_levels=2, t_max_c=65.0)
        r = dark_silicon_ao(p, m_cap=16)
        stack = Stack3D(base=grid_floorplan(2, 2), n_layers=3)
        layers = [stack.layer_of(c)[0] for c in r.details["dark_cores"]]
        # The worst-cooled cores live in the upper layers.
        assert min(layers) >= 1

    def test_noop_on_feasible_planar_chip(self):
        p = paper_platform(3, n_levels=2, t_max_c=65.0)
        r = dark_silicon_ao(p, m_cap=16)
        assert r.details["dark_cores"] == []
        plain = ao(p, m_cap=16)
        assert r.throughput == pytest.approx(plain.throughput, rel=1e-6)

    def test_oracle_verification(self):
        from repro.thermal.reference import reference_peak

        p = platform_3d(2, 2, 2, n_levels=2, t_max_c=55.0)
        r = dark_silicon_ao(p, m_cap=16)
        oracle = reference_peak(p.model, r.schedule, samples_per_interval=32)
        assert oracle <= p.theta_max + 0.05

    def test_hopeless_platform_raises(self):
        # Threshold barely above ambient: even one core at v_min overheats.
        p = platform_3d(2, 2, 2, n_levels=2, t_max_c=36.5)
        with pytest.raises(InfeasibleError):
            dark_silicon_ao(p, m_cap=8)
