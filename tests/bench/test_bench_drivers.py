"""Smoke tests for the benchmark drivers and the CLI (fast variants)."""

import pytest

from repro.__main__ import main as cli_main
from repro.bench import perf
from repro.bench.functional import (
    FIG6_PAPER_OPTIMUM,
    ablation_transition_optimisations,
    fig6_checking_trimming,
    fig6_optimum,
    logsize_git,
    table1_inventory,
)
from repro.bench.report import PaperComparison, comparison_rows, format_table
from repro.sim.costs import Mode


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_paper_comparison_relative_error(self):
        c = PaperComparison("x", paper=100, measured=90)
        assert c.relative_error == pytest.approx(-0.10)
        rows = comparison_rows([c])
        assert rows[0][-1] == "-10.0%"

    def test_zero_paper_value(self):
        assert PaperComparison("x", 0, 5).relative_error == 0.0


class TestPerfDrivers:
    def test_fig5a_quick(self):
        curves = perf.fig5a_git_curves(client_counts=(16, 64), duration_s=0.5)
        assert set(curves) == set(Mode)
        native = max(p.throughput_rps for p in curves[Mode.NATIVE])
        disk = max(p.throughput_rps for p in curves[Mode.LIBSEAL_DISK])
        assert native > disk > 0

    def test_fig7a_quick(self):
        rows = perf.fig7a_apache_content_sweep(sizes=(0, 1024), duration_s=0.5)
        assert all(r["overhead_pct"] > 10 for r in rows)

    def test_table2_quick(self):
        rows = perf.table2_async_calls(sizes=(0,), duration_s=0.5)
        assert rows[0]["async_rps"] > rows[0]["sync_rps"]

    def test_table3_quick(self):
        rows = perf.table3_sgx_threads(thread_counts=(1, 3), duration_s=0.5)
        by_s = {r["sgx_threads"]: r["throughput_rps"] for r in rows}
        assert by_s[3] > 2.5 * by_s[1]

    def test_table4_quick(self):
        rows = perf.table4_lthread_tasks(task_counts=(1, 48), duration_s=0.5)
        assert rows[0]["task_waits"] > rows[-1]["task_waits"]

    def test_micro_transitions(self):
        rows = perf.micro_transition_costs()
        assert rows[0]["cycles_per_transition"] == 8_400
        assert rows[-1]["cycles_per_transition"] == 170_000


class TestFunctionalDrivers:
    def test_fig6_quick_has_finite_optimum(self):
        rows = fig6_checking_trimming("git", intervals=(5, 25, 75), rounds=1)
        assert len(rows) == 3
        assert fig6_optimum(rows) in (5, 25, 75)
        assert set(FIG6_PAPER_OPTIMUM) == {"git", "owncloud", "dropbox"}

    def test_logsize_git_quick(self):
        rows = logsize_git(pointer_counts=(5,))
        assert rows[0]["bytes_per_pointer"] > 0

    def test_ablation_quick(self):
        result = ablation_transition_optimisations(connections=2)
        assert result["ecall_reduction_pct"] > 0
        assert result["ocall_reduction_pct"] > 0

    def test_inventory_counts_this_repo(self):
        rows = table1_inventory()
        total = next(r["loc"] for r in rows if r["module"] == "Total")
        assert total > 5000
        modules = {r["module"] for r in rows}
        assert any("SQL engine" in m for m in modules)


class TestCli:
    def test_demo_command(self, capsys):
        assert cli_main(["demo", "git"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out

    def test_perf_command(self, capsys):
        assert cli_main(["perf", "table3"]) == 0
        assert "SGX thread sweep" in capsys.readouterr().out

    def test_inventory_command(self, capsys):
        assert cli_main(["inventory"]) == 0
        assert "Total" in capsys.readouterr().out

    def test_fuzz_command(self, capsys):
        assert cli_main(["fuzz", "--layer", "http", "--cases", "20"]) == 0
        # One report line per layer and nothing else: no pump to name.
        assert capsys.readouterr().out.startswith("[http] seed=0 cases=20 ")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nope"])
