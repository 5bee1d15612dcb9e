"""Self-tests of the wall benchmark.

    PYTHONPATH=src python -m pytest benchmarks/wall/tests

Every measurement runs in a child process, so the observability plane
``benchmarks/conftest.py`` installs around each test never wraps one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

WALL = Path(__file__).resolve().parents[1]
ROOT = WALL.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.wall import trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WALL / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("wall") / "set.json"
    proc = run("--all", "--quick", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())["workloads"]


class TestQuickSet:
    def test_all_six_workloads_finish_correct(self, quick_set):
        assert sorted(quick_set) == sorted(WORKLOADS)
        for name, record in quick_set.items():
            assert record["correct"], (name, record["problems"])
            assert record["failed"] == 0
            assert record["negative_control_detected"], name
            assert record["metrics"]["fail_ratio"]["value"] == 0

    def test_every_named_metric_is_emitted_with_its_unit(self, quick_set):
        for name, record in quick_set.items():
            for metric, unit in {**END_TO_END, **PER_LAYER}.items():
                assert metric in record["metrics"], (name, metric)
                assert record["metrics"][metric]["unit"] == unit, (name, metric)

    def test_closure_and_overhead_are_reported(self, quick_set):
        for name, record in quick_set.items():
            assert 0.5 < record["metrics"]["closure_ratio"]["value"] <= 1.0, name
            assert record["metrics"]["trace_overhead_ratio"]["value"] > 0.5, name


class TestContractOutput:
    @pytest.mark.parametrize("flag,names", [("0", END_TO_END), ("1", PER_LAYER)])
    def test_last_line_holds_exactly_the_named_metrics(self, flag, names):
        result = last_line(run(
            "--workload", "bulk_64k", "--seed", "3", "--seconds", "1",
            "--trace", flag, "--quick",
        ))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(names)
        for metric, unit in names.items():
            assert set(result["metrics"][metric]) == {"value", "unit"}
            assert result["metrics"][metric]["unit"] == unit

    def test_exits_nonzero_without_the_program(self, tmp_path):
        bare = tmp_path / "benchmarks" / "wall"
        bare.mkdir(parents=True)
        for source in WALL.glob("*.py"):
            (bare / source.name).write_text(source.read_text())
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
        proc = subprocess.run(
            [sys.executable, "benchmarks/wall/run.py", "--workload", "bulk_64k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp_path, timeout=180,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode != 0
        assert proc.stdout == ""


class TestExactCounts:
    @staticmethod
    def counts(seed: int) -> dict:
        result = last_line(run(
            "--workload", "git_disk", "--seed", str(seed), "--trace", "1", "--quick"
        ))
        return {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith(".calls_per_op")
            or name in ("stored_bytes_per_pair", "fail_ratio")
        }

    def test_same_seed_same_counts_other_seed_other_counts(self):
        first, second, other = self.counts(7), self.counts(7), self.counts(8)
        assert first == second
        assert first != other
        assert first["audit.seal_epoch.calls_per_op"] > 0


def span(name, start, end, parent):
    return [name, start, end, parent]


class TestSelfTimeArithmetic:
    def test_nested_spans_subtract_direct_children_only(self):
        spans = [
            span("a", 0, 100, -1),
            span("b", 10, 60, 0),
            span("c", 20, 30, 1),
        ]
        assert trace.self_times(spans) == {"a": (50, 1), "b": (40, 1), "c": (10, 1)}

    def test_siblings_add_up(self):
        spans = [
            span("a", 0, 100, -1),
            span("b", 10, 20, 0),
            span("b", 30, 50, 0),
            span("c", 60, 65, 0),
        ]
        totals = trace.self_times(spans)
        assert totals == {"a": (65, 1), "b": (30, 2), "c": (5, 1)}
        assert sum(t for t, _ in totals.values()) == trace.covered_ns(spans) == 100

    def test_reentrant_layer_counts_its_time_once(self):
        # sgx.ecall -> (ocall back out) -> sgx.ecall again on the same stack.
        spans = [
            span("sgx.ecall", 0, 100, -1),
            span("tls.record", 10, 90, 0),
            span("sgx.ecall", 20, 70, 1),
        ]
        totals = trace.self_times(spans)
        assert totals["sgx.ecall"] == (20 + 50, 2)
        assert totals["tls.record"] == (30, 1)
        assert sum(t for t, _ in totals.values()) == trace.covered_ns(spans)
        # Inclusive time counts only the outermost span of the layer.
        assert trace.inclusive_us_per_call(spans)["sgx.ecall"] == pytest.approx(0.1)

    def test_top_level_spans_only_in_coverage(self):
        spans = [span("a", 0, 10, -1), span("b", 20, 50, -1), span("c", 25, 30, 1)]
        assert trace.covered_ns(spans) == 40


class TestWrappers:
    def test_every_wrapped_attribute_is_restored(self):
        tracer = trace.Tracer()
        before = [
            (owner, attr, owner.__dict__[attr])
            for owner, attr, _ in trace.targets(tracer)
        ]
        assert len(before) > 50
        with trace.installed(tracer):
            for owner, attr, original in before:
                assert owner.__dict__[attr] is not original, (owner, attr)
        for owner, attr, original in before:
            assert owner.__dict__[attr] is original, (owner, attr)

    def test_wrappers_restored_when_the_body_raises(self):
        from repro.audit.log import AuditLog

        original = AuditLog.__dict__["seal_epoch"]
        with pytest.raises(RuntimeError):
            with trace.installed(trace.Tracer()):
                raise RuntimeError("boom")
        assert AuditLog.__dict__["seal_epoch"] is original

    def test_spans_recorded_only_while_recording(self):
        from repro.crypto.ec import CURVE_P256

        tracer = trace.Tracer()
        with trace.installed(tracer):
            CURVE_P256.generator * 3
            assert tracer.spans == []
            tracer.recording = True
            CURVE_P256.generator * 3
            tracer.recording = False
        assert [s[trace.NAME] for s in tracer.take()] == ["crypto.ec.mul"]
