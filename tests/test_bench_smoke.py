"""The benchmark snapshot tooling's pure functions (scripts/bench_smoke.py)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_smoke.py"


@pytest.fixture(scope="module")
def bench_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(fullname, best):
    return {"name": fullname.split("::")[-1], "fullname": fullname,
            "stats": {"min": best, "mean": best * 1.1}}


def _doc(datetime, *benches, **extra):
    return {"datetime": datetime, "machine_info": {"node": datetime},
            "benchmarks": list(benches), **extra}


class TestMergeReports:
    def test_swaps_selected_entries_in_place(self, bench_smoke):
        committed = _doc("old", _bench("a", 1.0), _bench("b", 2.0),
                         _bench("c", 3.0), runner_smoke={"units": 4})
        fresh = _doc("new", _bench("b", 2.5))
        merged = bench_smoke.merge_reports(committed, fresh)
        assert [b["fullname"] for b in merged["benchmarks"]] == ["a", "b", "c"]
        assert [b["stats"]["min"] for b in merged["benchmarks"]] == [1.0, 2.5, 3.0]
        assert merged["datetime"] == "new"
        assert merged["machine_info"] == {"node": "new"}
        assert merged["runner_smoke"] == {"units": 4}

    def test_appends_new_entries(self, bench_smoke):
        committed = _doc("old", _bench("a", 1.0))
        fresh = _doc("new", _bench("z", 9.0), _bench("a", 1.5))
        merged = bench_smoke.merge_reports(committed, fresh)
        assert [b["fullname"] for b in merged["benchmarks"]] == ["a", "z"]
        assert merged["benchmarks"][0]["stats"]["min"] == 1.5

    def test_inputs_untouched(self, bench_smoke):
        committed = _doc("old", _bench("a", 1.0))
        fresh = _doc("new", _bench("a", 2.0))
        bench_smoke.merge_reports(committed, fresh)
        assert committed["benchmarks"][0]["stats"]["min"] == 1.0
        assert committed["datetime"] == "old"


class TestCompareReports:
    def test_flags_only_slowdowns_beyond_threshold(self, bench_smoke):
        limit = 1.0 + bench_smoke.COMPARE_THRESHOLD
        committed = _doc("old", _bench("a", 1.0), _bench("b", 1.0))
        fresh = _doc("new", _bench("a", limit * 1.01), _bench("b", limit * 0.99))
        regressions = bench_smoke.compare_reports(committed, fresh)
        assert len(regressions) == 1 and regressions[0].startswith("a:")

    def test_ignores_entries_missing_on_either_side(self, bench_smoke):
        committed = _doc("old", _bench("a", 1.0))
        fresh = _doc("new", _bench("new-bench", 50.0))
        assert bench_smoke.compare_reports(committed, fresh) == []
        assert bench_smoke.compare_reports(fresh, committed) == []

    def test_speedups_pass(self, bench_smoke):
        committed = _doc("old", _bench("a", 1.0))
        fresh = _doc("new", _bench("a", 0.1))
        assert bench_smoke.compare_reports(committed, fresh) == []
