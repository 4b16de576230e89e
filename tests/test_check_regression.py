"""Tests for the CI benchmark-regression gate."""

from __future__ import annotations

import json

import pytest

from benchmarks import check_regression
from benchmarks.check_regression import compare, load_means, main, pair_stats


def bench_json(path, means):
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    def make(base_means, head_means):
        return (
            bench_json(tmp_path / "base.json", base_means),
            bench_json(tmp_path / "head.json", head_means),
        )

    return make


class TestCompare:
    def test_within_budget_passes(self):
        regressions, improvements, missing = compare(
            {"a": 1.0, "b": 2.0}, {"a": 1.1, "b": 1.9}
        )
        assert regressions == [] and improvements == [] and missing == []

    def test_regression_detected_with_ratio(self):
        regressions, _, _ = compare({"a": 1.0}, {"a": 1.5})
        assert regressions == [("a", 1.0, 1.5, 1.5)]

    def test_custom_threshold(self):
        regressions, _, _ = compare({"a": 1.0}, {"a": 1.5}, threshold=0.6)
        assert regressions == []

    def test_unshared_benchmarks_never_fail(self):
        regressions, _, missing = compare({"old": 1.0}, {"new": 99.0})
        assert regressions == [] and missing == ["new", "old"]

    def test_zero_base_mean_skipped(self):
        regressions, _, _ = compare({"a": 0.0}, {"a": 5.0})
        assert regressions == []


class TestMain:
    def test_exit_zero_when_clean(self, files, capsys):
        base, head = files({"e1": 0.010}, {"e1": 0.011})
        assert main([base, head]) == 0
        assert "ok: no regression" in capsys.readouterr().out

    def test_exit_one_on_regression(self, files, capsys):
        base, head = files({"e1": 0.010, "e2": 0.5}, {"e1": 0.013, "e2": 0.5})
        assert main([base, head]) == 1
        output = capsys.readouterr().out
        assert "SLOWER" in output and "e1" in output

    def test_threshold_flag(self, files):
        base, head = files({"e1": 0.010}, {"e1": 0.013})
        assert main([base, head, "--threshold", "0.5"]) == 0

    def test_improvements_reported_not_failing(self, files, capsys):
        base, head = files({"e1": 0.010}, {"e1": 0.005})
        assert main([base, head]) == 0
        assert "faster" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, files, capsys):
        base, _ = files({"e1": 1.0}, {})
        assert main([base, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_load_means_prefers_fullname(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"benchmarks": [
            {"fullname": "mod.py::test_x", "name": "test_x",
             "stats": {"mean": 0.25}},
            {"name": "bare", "stats": {"mean": 0.5}},
            {"name": "broken", "stats": {}},
        ]}))
        assert load_means(str(path)) == {
            "mod.py::test_x": 0.25, "bare": 0.5,
        }

    def test_missing_positionals_without_smoke_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "base and head are required" in capsys.readouterr().err


class TestSmoke:
    def test_smoke_writes_machine_readable_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert main(["--smoke", "--out", str(out),
                     "--size", "30", "--repeats", "2"]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        report = json.loads(out.read_text())
        assert report["schema"] == "tip-bench-smoke/3"
        assert report["repeats"] == 2 and report["size"] == 30
        names = set(report["benchmarks"])
        assert names == {
            "e2.coalesce.integrated", "e2.join.integrated", "e2.coalesce.layered",
            "e5.q1.infant_tylenol", "e5.insert.literals",
            "e7.prepared.hot", "e7.adhoc.retranslate", "e7.executemany.ingest",
            "e8.linq.compile.builder", "e8.linq.compile.handwritten",
            "e8.linq.prepared.builder", "e8.linq.prepared.handwritten",
            "e10.join.kernel", "e10.join.naive", "e10.coalesce.kernel",
        }
        for entry in report["benchmarks"].values():
            assert entry["median_seconds"] > 0
            assert len(entry["runs"]) == 2
        # The algorithmic-work counters ride along with the timings.
        integrated = report["benchmarks"]["e2.join.integrated"]["counters"]
        assert integrated["element.periods_processed"] > 0
        layered = report["benchmarks"]["e2.coalesce.layered"]["counters"]
        assert layered["layered.op.total_length.rows"] > 0
        # So do the marshalling-cache hit/miss deltas per case.
        join_cache = report["benchmarks"]["e2.join.integrated"]["cache"]
        assert join_cache["decode"]["hits"] > join_cache["decode"]["misses"]
        literal_cache = report["benchmarks"]["e5.insert.literals"]["cache"]
        assert literal_cache["parse"]["hits"] > 0
        # The statement-cache A/B: hot hits its plan, ad-hoc never does,
        # and the prepared pair records the speedup.
        hot_cache = report["benchmarks"]["e7.prepared.hot"]["cache"]
        assert hot_cache["statement"]["hits"] > 0
        adhoc_cache = report["benchmarks"]["e7.adhoc.retranslate"]["cache"]
        assert adhoc_cache["statement"]["hits"] == 0
        pairs = report["pairs"]
        assert pairs["prepared"]["ratio"] > 1.0
        # Every A/B comes from the one interleaved runner, with its band.
        assert set(pairs) == {"prepared", "linq.compile", "linq.prepared", "plan", "flight"}
        for pair in pairs.values():
            low, high = pair["band"]
            assert 0 < low <= pair["ratio"] <= high
            assert pair["verdict"] in {"faster", "slower", "no change"}
            assert pair["a_median_seconds"] > 0 and pair["b_median_seconds"] > 0
        assert len(pairs["linq.prepared"]["ratios"]) == 2
        assert pairs["linq.compile"]["a"] == "e8.linq.compile.builder"
        # The planner A/B: same graph, kernel vs naive, with the
        # decision counters proving which path each case took.
        assert pairs["plan"]["a"] == "e10.join.kernel"
        kernel = report["benchmarks"]["e10.join.kernel"]["counters"]
        assert kernel.get("plan.kernel.join", 0) > 0
        naive = report["benchmarks"]["e10.join.naive"]["counters"]
        assert naive.get("plan.kernel.join", 0) == 0

    def test_smoke_fails_when_a_case_disagrees_with_its_oracle(
        self, tmp_path, monkeypatch, capsys
    ):
        real = check_regression._graph_rows

        def lossy(session, query, kernel):
            rows = real(session, query, kernel)
            return rows if kernel else rows[1:]

        monkeypatch.setattr(check_regression, "_graph_rows", lossy)
        out = tmp_path / "b.json"
        assert main(["--smoke", "--out", str(out), "--size", "20", "--repeats", "1"]) == 1
        assert "e10.join.kernel returned other rows than its oracle e10.join.naive" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_smoke_compares_against_baseline(self, tmp_path, capsys):
        out_a = tmp_path / "BENCH_A.json"
        assert main(["--smoke", "--out", str(out_a),
                     "--size", "20", "--repeats", "1"]) == 0
        out_b = tmp_path / "BENCH_B.json"
        assert main(["--smoke", "--out", str(out_b), "--baseline", str(out_a),
                     "--size", "20", "--repeats", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "baseline:" in stdout
        report = json.loads(out_b.read_text())
        deltas = report["baseline"]["deltas"]
        assert report["baseline"]["path"].endswith("BENCH_A.json")
        assert set(deltas) == set(report["benchmarks"])
        for entry in deltas.values():
            assert entry["speedup"] > 0

    def test_smoke_leaves_global_obs_state_alone(self, tmp_path):
        from repro import obs, plan
        from repro.obs import flight

        was_enabled = obs.is_enabled()
        flight.enable()
        flight.record("test.marker")
        ring = flight.signatures()
        plan.configure(enabled=False, min_rows=7)
        try:
            assert main(["--smoke", "--out", str(tmp_path / "b.json"),
                         "--size", "20", "--repeats", "1"]) == 0
            assert obs.is_enabled() == was_enabled
            assert (plan.state.enabled, plan.state.min_rows) == (False, 7)
            assert flight.is_enabled()
            assert flight.signatures() == ring
        finally:
            flight.disable()
            flight.clear()
            plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)


class TestPairStats:
    def test_equal_rounds_give_the_median_ratio_and_its_band(self):
        stats = pair_stats([1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 3.0, 4.0, 5.0, 6.0])
        assert stats["ratios"] == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert stats["ratio"] == 4.0
        assert stats["band"] == [3.0, 5.0]
        assert stats["verdict"] == "faster"

    def test_a_band_below_one_is_slower(self):
        stats = pair_stats([2.0, 2.0, 2.0], [1.0, 1.2, 1.0])
        assert stats["ratio"] == 0.5
        assert stats["band"] == pytest.approx([0.5, 0.55])
        assert stats["verdict"] == "slower"

    def test_a_band_holding_one_is_no_change(self):
        stats = pair_stats([1.0, 1.0, 1.0, 1.0], [0.9, 1.05, 1.1, 0.95])
        low, high = stats["band"]
        assert low < 1.0 < high
        assert stats["verdict"] == "no change"

    def test_a_shorter_side_reuses_its_last_run(self):
        # The scale plan: the naive side (B) runs once, the kernel three times.
        stats = pair_stats([2.0, 1.0, 4.0], [8.0])
        assert stats["ratios"] == [4.0, 8.0, 2.0]
        assert stats["ratio"] == 4.0
        assert stats["verdict"] == "faster"

    def test_a_single_round_has_a_point_band(self):
        stats = pair_stats([2.0], [1.0])
        assert stats["band"] == [0.5, 0.5] and stats["verdict"] == "slower"
