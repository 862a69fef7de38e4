"""Batched stable-status/peak engine vs the scalar paths, to 1e-9."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.exs import exs_pruned
from repro.algorithms.oscillation import choose_m, plan_modes
from repro.algorithms.tpt import enforce_threshold, fill_headroom
from repro.engine import ThermalEngine
from repro.errors import ScheduleError, ThermalModelError
from repro.schedule.builders import (
    TwoModeCandidates,
    constant_schedule,
    random_schedule,
    random_stepup_schedule,
    two_mode_schedule,
)
from repro.schedule.intervals import MIN_INTERVAL
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.batch import (
    peak_temperature_batch,
    periodic_steady_state_batch,
    stepup_peak_temperature_batch,
)
from repro.thermal.peak import (
    peak_temperature,
    stepup_peak_temperature,
)
from repro.thermal.periodic import periodic_steady_state
from repro.util.linalg import EigenExpm

PARITY = 1e-9


def mixed_candidates(n_cores, rng, count=24):
    """Randomized candidate set: step-up and arbitrary, varying z."""
    scheds = []
    for i in range(count):
        segments = int(rng.integers(1, 6))
        if i % 2 == 0:
            s = random_stepup_schedule(
                n_cores, rng, max_segments=segments, period=0.02
            )
        else:
            s = random_schedule(n_cores, rng, max_segments=segments, period=0.02)
        scheds.append(s)
    return scheds


def wrap_distance(t_a: float, t_b: float, period: float) -> float:
    """Distance between two instants on the periodic circle.

    In stable status t = 0 and t = period are the same instant, so peak
    times are compared modulo the period.
    """
    d = abs(t_a - t_b) % period
    return min(d, period - d)


class TestSteadyStateBatch:
    def test_randomized_parity(self, model3, rng):
        scheds = mixed_candidates(3, rng)
        batch = periodic_steady_state_batch(model3, scheds)
        assert len(batch) == len(scheds)
        for s, b in zip(scheds, batch):
            scalar = periodic_steady_state(model3, s)
            assert b.schedule is s
            np.testing.assert_allclose(
                b.boundary_temperatures,
                scalar.boundary_temperatures,
                atol=PARITY,
                rtol=0,
            )

    def test_k1(self, model3, rng):
        s = random_schedule(3, rng, period=0.03)
        (b,) = periodic_steady_state_batch(model3, [s])
        scalar = periodic_steady_state(model3, s)
        np.testing.assert_allclose(
            b.boundary_temperatures, scalar.boundary_temperatures, atol=PARITY
        )

    def test_empty_batch(self, model3):
        assert periodic_steady_state_batch(model3, []) == []


class TestPeakBatch:
    def test_randomized_parity(self, model3, rng):
        scheds = mixed_candidates(3, rng)
        batch = peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            scalar = peak_temperature(model3, s)
            assert b.value == pytest.approx(scalar.value, abs=PARITY)
            assert b.core == scalar.core
            assert wrap_distance(b.time, scalar.time, s.period) < PARITY
            np.testing.assert_allclose(
                b.core_peaks, scalar.core_peaks, atol=PARITY, rtol=0
            )

    def test_stepup_randomized_parity(self, model3, rng):
        scheds = [
            random_stepup_schedule(3, rng, max_segments=1 + i % 5, period=0.02)
            for i in range(20)
        ]
        batch = stepup_peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            scalar = stepup_peak_temperature(model3, s)
            assert b.value == pytest.approx(scalar.value, abs=PARITY)
            assert b.core == scalar.core
            assert wrap_distance(b.time, scalar.time, s.period) < PARITY
            np.testing.assert_allclose(
                b.core_peaks, scalar.core_peaks, atol=PARITY, rtol=0
            )

    def test_k1(self, model3, rng):
        s = random_stepup_schedule(3, rng, period=0.02)
        (b,) = peak_temperature_batch(model3, [s])
        scalar = peak_temperature(model3, s)
        assert b.value == pytest.approx(scalar.value, abs=PARITY)
        np.testing.assert_allclose(b.core_peaks, scalar.core_peaks, atol=PARITY)

    def test_empty_batch(self, model3):
        assert peak_temperature_batch(model3, []) == []
        assert stepup_peak_temperature_batch(model3, []) == []

    def test_stepup_check_rejects_arbitrary(self, model3, rng):
        for _ in range(20):
            s = random_schedule(3, rng, period=0.02)
            from repro.schedule.properties import is_step_up

            if not is_step_up(s):
                break
        with pytest.raises(ScheduleError):
            stepup_peak_temperature_batch(model3, [s])

    def test_order_preserved_in_mixed_batch(self, model3, rng):
        # Step-up and general candidates go down different code paths but
        # must land back at their input positions.
        scheds = mixed_candidates(3, rng, count=10)
        batch = peak_temperature_batch(model3, scheds)
        for s, b in zip(scheds, batch):
            assert b.value == pytest.approx(
                peak_temperature(model3, s).value, abs=PARITY
            )

    def test_constant_schedules(self, model3):
        volts = [[0.6, 0.8, 1.0], [1.3, 1.3, 1.3], [1.0, 0.6, 1.2]]
        scheds = [constant_schedule(v, period=0.02) for v in volts]
        batch = peak_temperature_batch(model3, scheds)
        for v, b in zip(volts, batch):
            assert b.value == pytest.approx(
                model3.steady_state_cores(v).max(), abs=PARITY
            )


class TestApplyExpmMany:
    def test_matches_rowwise_apply(self, model3, rng):
        times = rng.uniform(0.0, 0.05, 8)
        x = rng.normal(size=(8, model3.n_nodes))
        out = model3.eigen.apply_expm_many(times, x)
        for j, t in enumerate(times):
            np.testing.assert_allclose(
                out[j], model3.eigen.apply_expm(float(t), x[j]), atol=1e-10
            )

    def test_scalar_broadcast(self, model3, rng):
        x = rng.normal(size=model3.n_nodes)
        out = model3.eigen.apply_expm_many(0.01, x)
        assert out.shape == (1, model3.n_nodes)
        np.testing.assert_allclose(
            out[0], model3.eigen.apply_expm(0.01, x), atol=1e-10
        )

    def test_shape_mismatch_raises(self, model3):
        with pytest.raises(ThermalModelError):
            model3.eigen.apply_expm_many(
                [0.1, 0.2], np.zeros((3, model3.n_nodes))
            )

    def test_negative_time_raises(self, model3):
        with pytest.raises(ValueError):
            model3.eigen.apply_expm_many([-0.1], np.zeros((1, model3.n_nodes)))


class TestExpmCache:
    def test_cached_matches_direct(self, model3):
        mat = model3.eigen.expm_cached(0.0123)
        np.testing.assert_array_equal(mat, model3.eigen.expm(0.0123))
        assert model3.eigen.expm_cached(0.0123) is mat  # hit, same object
        assert not mat.flags.writeable

    def test_lru_eviction(self, monkeypatch, model3):
        monkeypatch.setattr(EigenExpm, "EXPM_CACHE_SIZE", 3)
        eigen = EigenExpm(model3.eigen.a, c_diag=None)
        for t in (0.01, 0.02, 0.03):
            eigen.expm_cached(t)
        eigen.expm_cached(0.01)  # refresh: 0.02 is now the oldest
        eigen.expm_cached(0.04)  # evicts 0.02
        assert set(eigen._expm_cache) == {0.01, 0.03, 0.04}


class TestSteadyStateLRU:
    def test_eviction_keeps_recently_used(self, monkeypatch, model3):
        from repro.thermal.model import ThermalModel

        monkeypatch.setattr(ThermalModel, "SS_CACHE_SIZE", 3)
        model = ThermalModel(model3.network, model3.power)
        volts = [(v, v, v) for v in (0.6, 0.8, 1.0, 1.2)]
        for v in volts[:3]:
            model.steady_state(v)
        assert len(model._ss_cache) == 3
        model.steady_state(volts[0])  # refresh the oldest entry
        model.steady_state(volts[3])  # evicts volts[1], not volts[0]
        assert len(model._ss_cache) == 3
        before = len(model._ss_cache)
        model.steady_state(volts[0])  # still cached: no growth, same result
        assert len(model._ss_cache) == before
        np.testing.assert_array_equal(
            model.steady_state(volts[0]), model3.steady_state(volts[0])
        )


class TestConsumersUnchanged:
    """Rewired optimizers must emit byte-identical schedules."""

    def test_choose_m_batch_matches_scalar(self, platform3):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        m_b, sched_b, hist_b = choose_m(platform3, plan, 0.02, m_cap=16, batch=True)
        m_s, sched_s, hist_s = choose_m(platform3, plan, 0.02, m_cap=16, batch=False)
        assert m_b == m_s
        assert sched_b.intervals == sched_s.intervals
        assert [m for m, _ in hist_b] == [m for m, _ in hist_s]
        for (_, p_b), (_, p_s) in zip(hist_b, hist_s):
            assert p_b == pytest.approx(p_s, abs=PARITY)

    def test_enforce_threshold_batch_matches_scalar(self, platform3):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        ratios0 = plan.high_ratio.copy()

        def scalar_fn(s):
            return stepup_peak_temperature(platform3.model, s, check=False)

        r_b, sched_b, peak_b, it_b = enforce_threshold(
            platform3, plan, ratios0.copy(), 0.02, 4
        )
        r_s, sched_s, peak_s, it_s = enforce_threshold(
            platform3, plan, ratios0.copy(), 0.02, 4, peak_fn=scalar_fn
        )
        assert it_b == it_s
        np.testing.assert_array_equal(r_b, r_s)
        assert sched_b.intervals == sched_s.intervals
        assert peak_b.value == pytest.approx(peak_s.value, abs=PARITY)

    def test_fill_headroom_batch_matches_scalar(self, platform3):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        ratios0, _, _, _ = enforce_threshold(
            platform3, plan, plan.high_ratio.copy(), 0.02, 4
        )

        def scalar_fn(s):
            return stepup_peak_temperature(platform3.model, s, check=False)

        r_b, sched_b, _, it_b = fill_headroom(
            platform3, plan, ratios0.copy(), 0.02, 4
        )
        r_s, sched_s, _, it_s = fill_headroom(
            platform3, plan, ratios0.copy(), 0.02, 4, peak_fn=scalar_fn
        )
        assert it_b == it_s
        np.testing.assert_array_equal(r_b, r_s)
        assert sched_b.intervals == sched_s.intervals


@st.composite
def candidate_sets(draw):
    """Two-mode candidate sets hitting every degenerate case of the builder.

    Ratios at exactly 0/1, within ``MIN_INTERVAL`` of them, equal modes,
    cut instants of different cores within ``MIN_INTERVAL`` of each
    other, and a different cycle per candidate.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    levels = st.sampled_from((0.0, 0.6, 0.8, 1.0, 1.2))
    v_low = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    v_high = v_low + np.array(
        draw(st.lists(st.sampled_from((0.0, 0.2, 0.5)), min_size=n, max_size=n))
    )
    cycles = np.array(
        draw(st.lists(st.floats(1e-4, 1.0), min_size=k, max_size=k))
    )
    ratios = np.empty((k, n))
    for row in range(k):
        for c in range(n):
            kind = draw(st.sampled_from(("free", "edge", "near-edge", "near-cut")))
            if kind == "free" or (kind == "near-cut" and c == 0):
                r = draw(st.floats(0.0, 1.0))
            elif kind == "edge":
                r = draw(st.sampled_from((0.0, 1.0)))
            elif kind == "near-edge":
                # One segment within a few MIN_INTERVAL of vanishing.
                tiny = draw(st.sampled_from((0.3, 1.0, 1.7))) * MIN_INTERVAL
                tiny /= cycles[row]
                r = draw(st.sampled_from((tiny, 1.0 - tiny)))
            else:
                off = draw(st.sampled_from((0.0, 0.4, 1.0, 2.5))) * MIN_INTERVAL
                r = min(max(ratios[row, 0] + off / cycles[row], 0.0), 1.0)
            ratios[row, c] = r
    return v_low, v_high, ratios, cycles


class TestTwoModeCandidates:
    """The array candidate form vs two_mode_schedule, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(candidate_sets())
    def test_intervals_match_builder_bitwise(self, data):
        v_low, v_high, ratios, cycles = data
        cands = TwoModeCandidates(v_low, v_high, ratios, cycles)
        lengths, volts, z = cands.intervals
        assert len(cands) == len(ratios)
        for k in range(len(cands)):
            sched = two_mode_schedule(v_low, v_high, ratios[k], cycles[k])
            assert z[k] == sched.n_intervals
            assert lengths[k, : z[k]].tobytes() == sched.lengths.tobytes()
            assert volts[k, : z[k]].tobytes() == sched.voltage_matrix.tobytes()
            assert not lengths[k, z[k]:].any() and not volts[k, z[k]:].any()

    @pytest.mark.parametrize(
        "v_low, v_high, ratio, cycle",
        [
            ([0.6, 0.8], [1.0, 1.0], [0.5, 1.2], 0.01),  # ratio above 1
            ([0.6, 0.8], [1.0, 1.0], [-0.1, 0.5], 0.01),  # ratio below 0
            ([0.6, 1.2], [1.0, 1.0], [0.5, 0.5], 0.01),  # v_high < v_low
            ([0.6, 0.8], [1.0, 1.0], [0.5, 0.5], 0.0),  # empty period
            ([-0.6, 0.8], [1.0, 1.0], [0.5, 0.5], 0.01),  # negative low mode
        ],
    )
    def test_rejects_what_the_builder_rejects(self, v_low, v_high, ratio, cycle):
        with pytest.raises(ScheduleError):
            two_mode_schedule(v_low, v_high, ratio, cycle)
        with pytest.raises(ScheduleError):
            TwoModeCandidates(v_low, v_high, [ratio], [cycle])

    def test_unused_mode_is_not_validated(self):
        # A negative low mode that no segment uses passes, as in the builder.
        two_mode_schedule([-0.6], [1.0], [1.0], 0.01)
        TwoModeCandidates([-0.6], [1.0], [[1.0]], [0.01])

    def test_engine_prices_arrays_like_schedules(self, platform3, rng):
        ratios = rng.uniform(0.0, 1.0, size=(12, 3))
        ratios[0] = 0.0
        ratios[1] = 1.0
        cycles = 0.02 / np.arange(1, 13)
        v_low, v_high = np.array([0.6, 0.8, 1.0]), np.array([0.8, 1.0, 1.3])
        cands = TwoModeCandidates(v_low, v_high, ratios, cycles)
        scheds = [
            two_mode_schedule(v_low, v_high, r, c) for r, c in zip(ratios, cycles)
        ]
        engine = ThermalEngine(platform3)
        from_arrays = engine.stepup_peak_batch(cands)
        from_schedules = engine.stepup_peak_batch(scheds)
        assert engine.stats().batch_candidates == 24
        for a, b in zip(from_arrays, from_schedules, strict=True):
            assert (a.value, a.core, a.time) == (b.value, b.core, b.time)
            assert a.core_peaks.tobytes() == b.core_peaks.tobytes()

    def test_empty_set(self, platform3):
        engine = ThermalEngine(platform3)
        cands = TwoModeCandidates([0.6, 0.8, 1.0], [0.8, 1.0, 1.3],
                                  np.zeros((0, 3)), 0.02)
        assert len(cands) == 0
        assert engine.stepup_peak_batch(cands) == []
        assert engine.stats().batch_calls == 1

    def test_choose_m_builds_one_schedule(self, platform3, monkeypatch):
        cont = continuous_assignment(platform3)
        plan = plan_modes(platform3, cont.voltages)
        built = []
        original = PeriodicSchedule.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(PeriodicSchedule, "__post_init__", counting)
        m_opt, sched, history = choose_m(platform3, plan, 0.02, m_cap=64)
        assert len(history) > 1
        assert built == [sched]


class TestSolverMemory:
    """Solvers leave no reference cycle that pins a dead thermal model."""

    @pytest.mark.parametrize("solver", ["AO", "PCO", "EXS-pruned"])
    def test_model_freed_without_gc(self, solver):
        gc.collect()
        gc.disable()
        try:
            engine = ThermalEngine(repro.load_platform("paper", n_cores=3))
            model = weakref.ref(engine.model)
            if solver == "EXS-pruned":
                result = exs_pruned(engine)
            else:
                result = repro.guarded_solve(solver, engine)
            del engine, result
            assert model() is None
        finally:
            gc.enable()
