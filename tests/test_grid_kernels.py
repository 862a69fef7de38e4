"""Cross-platform grid kernels vs the scalar paths, to 1e-9.

Covers the (platform × schedule) entry points (:mod:`repro.thermal.grid`)
and their group-by-model dispatch into :mod:`repro.thermal.batch`, the
process-shared eigenbasis cache (:mod:`repro.util.eigcache`), and the
grid-batched consumers (``certify_grid``, ``perturbed_peak_batch``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineStats, ThermalEngine
from repro.api import load_platform
from repro.platform import Platform, paper_platform, platform_3d
from repro.power import TransitionOverhead, big_little_power_model, paper_ladder
from repro.floorplan import paper_floorplan
from repro.schedule.builders import (
    constant_schedule,
    random_schedule,
    random_stepup_schedule,
)
from repro.thermal import batch, grid as grid_mod
from repro.thermal.batch import peak_temperature_batch, stepup_peak_temperature_batch
from repro.thermal.grid import (
    peak_temperature_grid,
    periodic_steady_state_grid,
    stepup_peak_temperature_grid,
)
from repro.thermal.model import ThermalModel
from repro.thermal.peak import peak_temperature, stepup_peak_temperature
from repro.thermal.periodic import periodic_steady_state
from repro.thermal.rc import build_single_layer_network
from repro.util import eigcache
from repro.util.linalg import EigenExpm

PARITY = 1e-9


def _big_little_platform(n_cores=6, t_max_c=55.0):
    fp = paper_floorplan(n_cores)
    pm = big_little_power_model(big_cores=list(range(n_cores // 2)), n_cores=n_cores)
    model = ThermalModel(build_single_layer_network(fp), pm)
    return Platform(
        model=model,
        ladder=paper_ladder(2),
        overhead=TransitionOverhead(),
        t_max_c=t_max_c,
    )


@pytest.fixture(scope="module")
def hetero_models():
    """Heterogeneous platform mix: core counts, power models, topology."""
    return [
        paper_platform(2, n_levels=2, t_max_c=65.0).model,
        paper_platform(3, n_levels=3, t_max_c=55.0).model,
        _big_little_platform().model,
        platform_3d(2, 2, 2, n_levels=2, t_max_c=60.0).model,
    ]


def _mixed_rows(models, rng, per_model=6, stepup_only=False):
    rows = []
    for model in models:
        for i in range(per_model):
            segments = int(rng.integers(1, 6))
            if stepup_only or i % 2 == 0:
                s = random_stepup_schedule(
                    model.n_cores, rng, max_segments=segments, period=0.02
                )
            else:
                s = random_schedule(
                    model.n_cores, rng, max_segments=segments, period=0.02
                )
            rows.append((model, s))
    return rows


class TestGridParity:
    def test_steady_state_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng)
        grid = periodic_steady_state_grid(rows)
        for (model, sched), sol in zip(rows, grid):
            check = periodic_steady_state(model, sched)
            np.testing.assert_allclose(
                sol.boundary_temperatures,
                check.boundary_temperatures,
                atol=PARITY,
            )

    def test_stepup_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng, stepup_only=True)
        grid = stepup_peak_temperature_grid(rows, check=False)
        for (model, sched), res in zip(rows, grid):
            check = stepup_peak_temperature(model, sched, check=False)
            assert res.value == pytest.approx(check.value, abs=PARITY)
            np.testing.assert_allclose(
                res.core_peaks, check.core_peaks, atol=PARITY
            )

    def test_general_grid(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng)
        grid = peak_temperature_grid(rows)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched)
            assert res.value == pytest.approx(check.value, abs=PARITY)
            np.testing.assert_allclose(
                res.core_peaks, check.core_peaks, atol=PARITY
            )

    def test_general_grid_no_fast_path(self, hetero_models, rng):
        rows = _mixed_rows(hetero_models, rng, per_model=3)
        grid = peak_temperature_grid(rows, stepup_fast_path=False)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched, stepup_fast_path=False)
            assert res.value == pytest.approx(check.value, abs=PARITY)

    def test_padded_interval_edges(self, hetero_models, rng):
        """Rows with wildly different interval counts pad correctly."""
        m_small, m_large = hetero_models[0], hetero_models[-1]
        rows = [
            (m_small, constant_schedule([1.0, 1.0], period=0.02)),
            (m_large, random_schedule(m_large.n_cores, rng, max_segments=8)),
            (m_small, random_stepup_schedule(2, rng, max_segments=1)),
        ]
        grid = peak_temperature_grid(rows)
        for (model, sched), res in zip(rows, grid):
            check = peak_temperature(model, sched)
            assert res.value == pytest.approx(check.value, abs=PARITY)

    def test_single_row_and_empty(self, hetero_models, rng):
        model = hetero_models[1]
        sched = random_schedule(model.n_cores, rng)
        [res] = peak_temperature_grid([(model, sched)])
        assert res.value == pytest.approx(
            peak_temperature(model, sched).value, abs=PARITY
        )
        assert peak_temperature_grid([]) == []
        assert stepup_peak_temperature_grid([]) == []
        assert periodic_steady_state_grid([]) == []

    @settings(max_examples=15, deadline=None)
    @given(perm_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_platform_axis_permutation_invariance(
        self, hetero_models, perm_seed
    ):
        """Row order (hence platform stacking order) never changes results."""
        rng = np.random.default_rng(7)
        rows = _mixed_rows(hetero_models, rng, per_model=3)
        base = peak_temperature_grid(rows)
        perm = np.random.default_rng(perm_seed).permutation(len(rows))
        shuffled = peak_temperature_grid([rows[i] for i in perm])
        for k, i in enumerate(perm):
            assert shuffled[k].value == base[i].value
            assert shuffled[k].core == base[i].core


class TestChunkBudget:
    def test_forced_chunking_parity(self, hetero_models, rng, monkeypatch):
        rows = _mixed_rows(hetero_models, rng, per_model=4)
        baseline = peak_temperature_grid(rows)
        monkeypatch.setattr(batch, "GRID_CHUNK_ELEMENTS", 1000)
        chunked = peak_temperature_grid(rows)
        for a, b in zip(baseline, chunked):
            assert a.value == b.value
            assert a.core == b.core


def _assert_same_peak(a, b):
    assert (a.value, a.core, a.time) == (b.value, b.core, b.time)
    np.testing.assert_array_equal(a.core_peaks, b.core_peaks)


class TestGroupByModel:
    """Interleaved rows of several models: one batch-kernel call per model."""

    @pytest.fixture(scope="class")
    def three_models(self):
        return [
            load_platform(name).model for name in ("paper3", "big_little", "stack3d")
        ]

    @staticmethod
    def _interleaved(models, rng, stepup_only=False):
        per_model = [
            _mixed_rows([m], rng, per_model=4, stepup_only=stepup_only)
            for m in models
        ]
        return [row for group in zip(*per_model) for row in group]

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        kernel = getattr(grid_mod, name)

        def counted(model, schedules, **kwargs):
            calls.append(model)
            return kernel(model, schedules, **kwargs)

        monkeypatch.setattr(grid_mod, name, counted)
        return calls

    @staticmethod
    def _per_model(kernel, rows, **kwargs):
        """Each model's rows through ``kernel`` on their own, in row order."""
        out = [None] * len(rows)
        for model in {id(m): m for m, _ in rows}.values():
            idx = [i for i, (m, _) in enumerate(rows) if m is model]
            for i, res in zip(idx, kernel(model, [rows[i][1] for i in idx], **kwargs)):
                out[i] = res
        return out

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    def test_general_peaks(self, three_models, rng, monkeypatch, chunked):
        if chunked:
            monkeypatch.setattr(batch, "GRID_CHUNK_ELEMENTS", 1000)
        rows = self._interleaved(three_models, rng)
        expected = self._per_model(peak_temperature_batch, rows, refine=True)
        calls = self._count_calls(monkeypatch, "peak_temperature_batch")
        got = peak_temperature_grid(rows, refine=True)
        assert calls == three_models
        assert len(got) == len(rows)
        for a, b in zip(got, expected):
            _assert_same_peak(a, b)

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    def test_stepup_peaks(self, three_models, rng, monkeypatch, chunked):
        if chunked:
            monkeypatch.setattr(batch, "GRID_CHUNK_ELEMENTS", 1000)
        rows = self._interleaved(three_models, rng, stepup_only=True)
        expected = self._per_model(stepup_peak_temperature_batch, rows, check=False)
        calls = self._count_calls(monkeypatch, "stepup_peak_temperature_batch")
        got = stepup_peak_temperature_grid(rows, check=False)
        assert calls == three_models
        for a, b in zip(got, expected):
            _assert_same_peak(a, b)


class TestEigenCache:
    def test_key_content_addressed(self, model3):
        k1 = eigcache.eigen_cache_key(model3.a, model3.c_diag)
        k2 = eigcache.eigen_cache_key(model3.a.copy(), model3.c_diag.copy())
        assert k1 == k2
        k3 = eigcache.eigen_cache_key(model3.a * 1.0000001, model3.c_diag)
        assert k3 != k1

    def test_memory_hit(self, model3, monkeypatch):
        monkeypatch.setenv("REPRO_EIG_CACHE", "0")  # memory layer only
        eigcache.clear_memory_cache()
        eig1, origin1 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        eig2, origin2 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin1 == "miss" and origin2 == "memory"
        np.testing.assert_array_equal(eig1.eigenvalues, eig2.eigenvalues)
        assert eig1 is not eig2  # fresh wrapper, shared factors

    def test_disk_roundtrip(self, model3, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EIG_CACHE", raising=False)
        monkeypatch.setenv("REPRO_EIG_CACHE_DIR", str(tmp_path))
        eigcache.clear_memory_cache()
        _, origin1 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin1 == "miss"
        assert list(tmp_path.glob("*.npz"))  # written through
        eigcache.clear_memory_cache()  # simulate a fresh worker process
        eig, origin2 = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin2 == "disk"
        check = EigenExpm(model3.a, c_diag=model3.c_diag)
        np.testing.assert_allclose(eig.eigenvalues, check.eigenvalues)

    def test_factors_read_only(self, model3, monkeypatch):
        monkeypatch.setenv("REPRO_EIG_CACHE", "0")
        eigcache.clear_memory_cache()
        eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        eig, origin = eigcache.shared_eigen(model3.a, c_diag=model3.c_diag)
        assert origin == "memory"
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0

    def test_model_counters(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EIG_CACHE_DIR", str(tmp_path))
        eigcache.clear_memory_cache()
        m1 = paper_platform(3, n_levels=2, t_max_c=55.0).model
        _ = m1.eigen
        assert (m1.eig_cache_hits, m1.eig_cache_misses) == (0, 1)
        m2 = paper_platform(3, n_levels=2, t_max_c=55.0).model
        _ = m2.eigen
        assert (m2.eig_cache_hits, m2.eig_cache_misses) == (1, 0)

    def test_stats_flow(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EIG_CACHE_DIR", str(tmp_path))
        eigcache.clear_memory_cache()
        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        mark = engine.checkpoint()
        _ = engine.model.eigen
        stats = engine.stats_since(mark)
        assert stats.eigen_cache_misses == 1
        assert stats.eigen_cache_hit_rate == 0.0
        # combine() aggregates per-unit rows into one truthful hit-rate.
        combined = stats.combine(
            EngineStats(eigen_cache_hits=3, eigen_cache_misses=0)
        )
        assert combined.eigen_cache_hits == 3
        assert combined.eigen_cache_misses == 1
        assert combined.eigen_cache_hit_rate == pytest.approx(0.75)
        assert "eigenbasis cache" in combined.format()
        roundtrip = EngineStats.from_dict(combined.as_dict())
        assert roundtrip.eigen_cache_hits == 3


class TestGridConsumers:
    def test_certify_grid_matches_scalar(self, rng):
        from repro.safety.certificate import certify, certify_grid

        items = []
        for n in (2, 3):
            engine = ThermalEngine(paper_platform(n, n_levels=2, t_max_c=65.0))
            items.append((engine, random_schedule(n, rng)))
            items.append(
                (engine, random_stepup_schedule(n, rng), {"claimed_feasible": True})
            )
        grid = certify_grid(items)
        for item, gc in zip(items, grid):
            claims = dict(item[2]) if len(item) > 2 else {}
            sc = certify(item[0], item[1], **claims)
            assert gc.peak_theta == pytest.approx(sc.peak_theta, abs=PARITY)
            assert gc.method_peaks.keys() == sc.method_peaks.keys()
            assert gc.accepted == sc.accepted
            assert gc.reasons == sc.reasons

    def test_adaptive_reference_sampling(self, rng):
        from repro.safety.certificate import SafetyCertificate, certify

        engine = ThermalEngine(paper_platform(2, n_levels=2, t_max_c=65.0))
        # A cool schedule sits far below T_max: the oracle subsamples.
        sched = constant_schedule([1.0, 1.0], period=0.02)
        fixed = certify(
            engine, sched, reference=True, adaptive_reference=False,
            reference_samples=64,
        )
        adaptive = certify(engine, sched, reference=True, reference_samples=64)
        assert fixed.reference_samples_used == 64
        assert adaptive.reference_samples_used == 16
        assert adaptive.accepted
        roundtrip = SafetyCertificate.from_dict(adaptive.as_dict())
        assert roundtrip.reference_samples_used == 16
        assert fixed.method_peaks["reference"] == pytest.approx(
            adaptive.method_peaks["reference"], abs=1e-3
        )

    def test_perturbed_peak_batch(self, rng):
        from repro.safety.faults import FaultSpec, perturbed_peak, perturbed_peak_batch

        engine = ThermalEngine(paper_platform(3, n_levels=2, t_max_c=65.0))
        sched = random_stepup_schedule(3, rng, max_segments=3)
        specs = [
            FaultSpec(),
            FaultSpec(sensor_noise_sigma=0.5),
            FaultSpec(stuck_core=0, stuck_level=-1),
            FaultSpec(ambient_drift_k=2.0),
        ]
        batch = perturbed_peak_batch(engine, sched, specs)
        for spec, peak in zip(specs, batch):
            assert peak == pytest.approx(
                perturbed_peak(engine, sched, spec), abs=PARITY
            )
        assert perturbed_peak_batch(engine, sched, []) == []
