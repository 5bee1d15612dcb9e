"""The bench-regression gate itself: comparison semantics, loud failure
modes (no summary, missing metric, malformed baseline) and the canonical
machine-written baseline lifecycle."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.bench.regression import (
    BaselineError,
    MetricVerdict,
    canonical_text,
    check_canonical,
    compare,
    render_verdicts,
    update_baseline,
)


def write_baseline(path, metrics, tolerance=0.2):
    path.write_text(
        json.dumps({"tolerance": tolerance, "metrics": metrics}, indent=2) + "\n"
    )


def write_summary(results_dir, name, metrics):
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}.json").write_text(json.dumps({"metrics": metrics}))


@pytest.fixture
def results(tmp_path):
    return tmp_path / "results"


@pytest.fixture
def baseline(tmp_path):
    return tmp_path / "ci_baseline.json"


def by_metric(verdicts):
    return {v.metric: v for v in verdicts}


class TestComparisonModes:
    def test_exact_requires_equality(self, results, baseline):
        write_summary(results, "bench", {"count": 5, "other": 5.0001})
        write_baseline(baseline, {
            "bench.count": {"value": 5, "mode": "exact"},
            "bench.other": {"value": 5, "mode": "exact"},
        })
        verdicts, ok = compare(results, baseline)
        assert not ok
        assert by_metric(verdicts)["bench.count"].status == "ok"
        assert by_metric(verdicts)["bench.other"].status == "regression"

    def test_min_max_range_apply_twenty_percent_tolerance(self, results, baseline):
        write_summary(results, "bench", {"speedup": 8.01, "cost": 11.9, "knee": 12.1})
        write_baseline(baseline, {
            "bench.speedup": {"value": 10.0, "mode": "min"},   # floor 8.0
            "bench.cost": {"value": 10.0, "mode": "max"},      # ceiling 12.0
            "bench.knee": {"value": 10.0, "mode": "range"},    # [8, 12]
        })
        verdicts, ok = compare(results, baseline)
        got = by_metric(verdicts)
        assert got["bench.speedup"].status == "ok"
        assert got["bench.cost"].status == "ok"
        assert got["bench.knee"].status == "regression"
        assert not ok

    def test_range_bounds_are_sharp(self, results, baseline):
        write_summary(results, "bench", {"low": 8.0, "high": 12.0})
        write_baseline(baseline, {
            "bench.low": {"value": 10.0, "mode": "range"},
            "bench.high": {"value": 10.0, "mode": "range"},
        })
        _, ok = compare(results, baseline)
        assert ok  # both endpoints inclusive

    def test_per_metric_tolerance_overrides_default(self, results, baseline):
        write_summary(results, "bench", {"pinned": 9.9})
        write_baseline(baseline, {
            "bench.pinned": {"value": 10.0, "mode": "min", "tolerance": 0.0},
        })
        _, ok = compare(results, baseline)
        assert not ok

    def test_negative_baseline_swaps_bounds(self, results, baseline):
        write_summary(results, "bench", {"delta": -10.5})
        write_baseline(baseline, {
            "bench.delta": {"value": -10.0, "mode": "range"},
        })
        _, ok = compare(results, baseline)
        assert ok  # within [-12, -8], not the inverted empty interval


class TestLoudFailureModes:
    def test_missing_metric_in_summary_fails(self, results, baseline):
        write_summary(results, "bench", {"present": 1})
        write_baseline(baseline, {
            "bench.gone": {"value": 1, "mode": "exact"},
        })
        verdicts, ok = compare(results, baseline)
        assert not ok
        assert verdicts[0].status == "missing"
        assert "gone" in verdicts[0].detail

    def test_absent_summary_file_fails_every_gated_metric(self, results, baseline):
        results.mkdir()
        write_baseline(baseline, {
            "ghost.a": {"value": 1, "mode": "exact"},
            "ghost.b": {"value": 2, "mode": "exact"},
        })
        verdicts, ok = compare(results, baseline)
        assert not ok
        assert [v.status for v in verdicts] == ["no-summary", "no-summary"]
        assert "did it run?" in verdicts[0].detail

    def test_unreadable_summary_fails_loudly(self, results, baseline):
        results.mkdir()
        (results / "bench.json").write_text("{not json")
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "exact"}})
        verdicts, ok = compare(results, baseline)
        assert not ok
        assert verdicts[0].status == "no-summary"
        assert "unreadable" in verdicts[0].detail

    def test_non_numeric_metric_counts_as_missing(self, results, baseline):
        write_summary(results, "bench", {"flag": True, "name": "x"})
        write_baseline(baseline, {
            "bench.flag": {"value": 1, "mode": "exact"},
            "bench.name": {"value": 1, "mode": "exact"},
        })
        verdicts, ok = compare(results, baseline)
        assert not ok
        assert all(v.status == "missing" for v in verdicts)

    def test_summary_metric_without_baseline_entry_is_not_gated(
        self, results, baseline
    ):
        # New benchmarks gate nothing until a baseline entry exists: the
        # verdict set is exactly the baseline's metric set.
        write_summary(results, "bench", {"old": 1, "brand_new": 99})
        write_baseline(baseline, {"bench.old": {"value": 1, "mode": "exact"}})
        verdicts, ok = compare(results, baseline)
        assert ok
        assert [v.metric for v in verdicts] == ["bench.old"]


class TestMalformedBaseline:
    def test_bad_json_raises(self, results, baseline):
        baseline.write_text("{oops")
        with pytest.raises(BaselineError, match="malformed baseline JSON"):
            compare(results, baseline)

    def test_missing_file_raises(self, results, baseline):
        with pytest.raises(BaselineError, match="not found"):
            compare(results, baseline)

    def test_wrong_shape_raises(self, results, baseline):
        baseline.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(BaselineError, match="'metrics' object"):
            compare(results, baseline)

    def test_unknown_mode_raises(self, results, baseline):
        write_summary(results, "bench", {"x": 1})
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "atleast"}})
        with pytest.raises(BaselineError, match="unknown mode"):
            compare(results, baseline)

    def test_entry_without_value_raises(self, results, baseline):
        write_summary(results, "bench", {"x": 1})
        write_baseline(baseline, {"bench.x": {"mode": "exact"}})
        with pytest.raises(BaselineError, match="unusable"):
            compare(results, baseline)


class TestCanonicalBaseline:
    def test_update_rewrites_values_and_reports_changes(self, results, baseline):
        write_summary(results, "bench", {"speedup": 31.25, "count": 7})
        write_baseline(baseline, {
            "bench.speedup": {"value": 29.8, "mode": "min"},
            "bench.count": {"value": 7, "mode": "exact"},
        })
        diff = update_baseline(results, baseline)
        assert diff.changed == [("bench.speedup", 29.8, 31.25)]
        assert diff.added == [] and diff.removed == []
        doc = json.loads(baseline.read_text())
        assert doc["metrics"]["bench.speedup"] == {"value": 31.25, "mode": "min"}
        assert doc["metrics"]["bench.count"]["value"] == 7  # int stays int
        _, ok = compare(results, baseline)
        assert ok

    def test_update_is_deterministic_and_canonical(self, results, baseline):
        write_summary(results, "bench", {"ratio": 1.23456789})
        write_baseline(baseline, {"bench.ratio": {"value": 1.0, "mode": "range"}})
        update_baseline(results, baseline)
        first = baseline.read_text()
        assert update_baseline(results, baseline).empty  # canonical fixpoint
        assert baseline.read_text() == first
        assert json.loads(first)["metrics"]["bench.ratio"]["value"] == 1.23457
        ok, _ = check_canonical(baseline)
        assert ok

    def test_update_refuses_missing_summary_or_metric(self, results, baseline):
        results.mkdir()
        write_baseline(baseline, {"ghost.x": {"value": 1, "mode": "exact"}})
        with pytest.raises(BaselineError, match="cannot update"):
            update_baseline(results, baseline)
        write_summary(results, "ghost", {"other": 2})
        with pytest.raises(BaselineError, match="cannot update"):
            update_baseline(results, baseline)

    def test_drafted_gate_receives_first_value_as_added(self, results, baseline):
        # The sanctioned way a new gate enters the baseline: a hand
        # drafted entry with value null, filled by --update-baseline.
        write_summary(results, "bench", {"fresh": 42, "old": 1})
        write_baseline(baseline, {
            "bench.fresh": {"value": None, "mode": "min"},
            "bench.old": {"value": 1, "mode": "exact"},
        })
        diff = update_baseline(results, baseline)
        assert diff.added == [("bench.fresh", 42)]
        assert diff.changed == [] and diff.removed == []
        doc = json.loads(baseline.read_text())
        assert doc["metrics"]["bench.fresh"] == {"value": 42, "mode": "min"}

    def test_drafted_gate_with_unknown_mode_still_raises(self, results, baseline):
        write_summary(results, "bench", {"fresh": 42})
        write_baseline(baseline, {
            "bench.fresh": {"value": None, "mode": "atleast"},
        })
        with pytest.raises(BaselineError, match="unknown mode"):
            update_baseline(results, baseline)

    def test_prune_drops_vanished_metrics_as_removed(self, results, baseline):
        write_summary(results, "bench", {"kept": 5})
        write_baseline(baseline, {
            "bench.kept": {"value": 5, "mode": "exact"},
            "bench.vanished": {"value": 9, "mode": "min"},
        })
        # Without prune the vanished gate stays loud...
        with pytest.raises(BaselineError, match="cannot update"):
            update_baseline(results, baseline)
        # ...with prune it is dropped and reported.
        diff = update_baseline(results, baseline, prune=True)
        assert diff.removed == ["bench.vanished"]
        doc = json.loads(baseline.read_text())
        assert set(doc["metrics"]) == {"bench.kept"}
        _, ok = compare(results, baseline)
        assert ok

    def test_diff_describe_is_human_readable(self, results, baseline):
        write_summary(results, "bench", {"a": 2.0, "b": 3})
        write_baseline(baseline, {
            "bench.a": {"value": 1.0, "mode": "min"},
            "bench.b": {"value": None, "mode": "exact"},
            "bench.c": {"value": 9, "mode": "max"},
        })
        text = update_baseline(results, baseline, prune=True).describe()
        assert "1 changed, 1 added, 1 removed" in text
        assert "changed  bench.a: 1 -> 2" in text
        assert "added    bench.b: 3" in text
        assert "removed  bench.c" in text
        empty = update_baseline(results, baseline)
        assert empty.describe() == "no metric values changed"

    def test_hand_edited_file_is_not_canonical(self, results, baseline):
        write_summary(results, "bench", {"x": 1})
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "exact"}})
        update_baseline(results, baseline)
        ok, _ = check_canonical(baseline)
        assert ok
        # A textually different but semantically identical file (what a
        # hand edit or merge resolution typically produces) must fail.
        doc = json.loads(baseline.read_text())
        baseline.write_text(json.dumps(doc, indent=4, sort_keys=True))
        ok, canonical = check_canonical(baseline)
        assert not ok
        assert canonical == canonical_text(doc)

    def test_committed_baseline_is_canonical(self):
        ok, _ = check_canonical(
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "baselines" / "ci_baseline.json"
        )
        assert ok


class TestRendering:
    def test_render_orders_failures_last(self):
        verdicts = [
            MetricVerdict("b.fail", "min", 10, 5, 0.2, "regression", "must be >= 8"),
            MetricVerdict("a.ok", "exact", 1, 1, 0.2, "ok"),
            MetricVerdict("c.gone", "exact", 1, None, 0.2, "no-summary", "no summary"),
        ]
        text = render_verdicts(verdicts)
        lines = text.splitlines()
        assert lines[0].startswith("a.ok")
        assert "REGRESSION" in lines[1]
        assert "NO-SUMMARY" in lines[2]


class TestCli:
    def test_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        results = tmp_path / "results"
        baseline = tmp_path / "base.json"
        write_summary(results, "bench", {"x": 1})
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "exact"}})
        args = ["bench-compare", "--results", str(results),
                "--baseline", str(baseline), "--output", str(tmp_path / "out.json")]
        assert cli_main(args) == 0
        write_summary(results, "bench", {"x": 2})
        assert cli_main(args) == 1
        baseline.write_text("{oops")
        assert cli_main(args) == 2
        capsys.readouterr()

    def test_default_output_leaves_the_tracked_verdicts_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        """The default ``--output`` is git-ignored under
        ``benchmarks/results``: a default run never rewrites the committed
        root ``BENCH_ci.json``."""
        tracked = Path(__file__).resolve().parents[2] / "BENCH_ci.json"
        before = tracked.read_bytes()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_ci.json").write_bytes(before)
        results = tmp_path / "benchmarks" / "results"
        baseline = tmp_path / "base.json"
        write_summary(results, "bench", {"x": 1})
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "exact"}})
        assert cli_main(["bench-compare", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert (tmp_path / "BENCH_ci.json").read_bytes() == before
        assert tracked.read_bytes() == before
        report = json.loads((results / "BENCH_ci.json").read_text())
        assert report["ok"] and report["results_dir"] == "benchmarks/results"

    def test_update_and_check_canonical_flags(self, tmp_path, capsys):
        results = tmp_path / "results"
        baseline = tmp_path / "base.json"
        write_summary(results, "bench", {"x": 3})
        write_baseline(baseline, {"bench.x": {"value": 1, "mode": "exact"}})
        common = ["bench-compare", "--results", str(results),
                  "--baseline", str(baseline)]
        assert cli_main(common + ["--check-canonical"]) == 1  # hand-written
        assert cli_main(common + ["--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "bench.x" in out
        assert cli_main(common + ["--check-canonical"]) == 0
        assert json.loads(baseline.read_text())["metrics"]["bench.x"]["value"] == 3
