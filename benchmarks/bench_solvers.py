"""Micro-benchmarks of the thermal kernels underlying everything else.

These quantify why the closed-form engine makes AO cheap: a periodic
steady-state solve costs microseconds after the one-time
eigendecomposition, versus milliseconds for a numerical integrator pass.
The guarded AO solves time the whole path a caller runs on top of them.
"""

import numpy as np
import pytest

import repro
from repro.engine import ThermalEngine
from repro.schedule.builders import random_stepup_schedule, two_mode_schedule
from repro.thermal.periodic import periodic_steady_state
from repro.thermal.reference import reference_simulate
from repro.thermal.transient import simulate_schedule_period


def test_eigendecomposition(benchmark, platform9):
    """One-time O(n^3) setup cost of the cached eigen-expm."""
    from repro.util.linalg import EigenExpm

    model = platform9.model
    ee = benchmark(lambda: EigenExpm(model.a, c_diag=model.c_diag))
    assert np.all(ee.eigenvalues < 0)


def test_periodic_steady_state_9core(benchmark, platform9):
    """Stable-status fixed point of a 10-interval step-up schedule."""
    rng = np.random.default_rng(3)
    s = random_stepup_schedule(9, rng, period=0.02, max_segments=4)
    model = platform9.model
    sol = benchmark(lambda: periodic_steady_state(model, s))
    assert np.allclose(sol.start_temperature, sol.end_temperature, atol=1e-9)


def test_one_period_propagation(benchmark, platform9):
    """Closed-form propagation of one period (the AO inner kernel)."""
    s = two_mode_schedule([0.6] * 9, [1.3] * 9, [0.5] * 9, 0.01)
    model = platform9.model
    theta0 = np.zeros(model.n_nodes)
    out = benchmark(lambda: simulate_schedule_period(model, s, theta0))
    assert np.all(np.isfinite(out))


def test_reference_integrator_period(benchmark, platform9):
    """The RK45 oracle on the same period (the cost we avoid paying)."""
    s = two_mode_schedule([0.6] * 9, [1.3] * 9, [0.5] * 9, 0.01)
    model = platform9.model

    def run():
        return reference_simulate(model, s, periods=1, samples_per_interval=2)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    closed = simulate_schedule_period(model, s, np.zeros(model.n_nodes))
    assert np.allclose(trace.end_temperature, closed, atol=1e-6)


def test_steady_state_batch(benchmark, platform9):
    """Batched Cholesky steady states (the EXS kernel), 4096 assignments."""
    rng = np.random.default_rng(5)
    volts = rng.choice([0.6, 1.3], size=(4096, 9))
    model = platform9.model
    theta = benchmark(lambda: model.steady_state_batch(volts))
    assert theta.shape == (4096, 9)


@pytest.mark.parametrize(
    "preset, n_cores", [("paper", 3), ("tech-45-io", 12), ("tech-45-io", 16)]
)
def test_guarded_ao(benchmark, preset, n_cores):
    """A full guarded AO solve: m-scan, TPT/fill, verify, floor guard, certificate."""
    platform = repro.load_platform(preset, n_cores=n_cores)
    result = benchmark(lambda: repro.guarded_solve("AO", ThermalEngine(platform)))
    assert result.feasible
