"""Checker-level batch accounting and the §6.8 cycle model.

Batch filtering in the audit log's SealDB engine may change what a check
*costs*, never what it *finds*: the verdicts must equal the full-rescan
checker's, and the per-invariant ``rows_scanned`` / ``rows_vectorized``
must equal the golden values recorded when the engine still had a
row-at-a-time regime to compare with (which scanned exactly the same
rows and vectorized none). ``rows_vectorized`` then prices the batched
subset at the cheaper per-row rate in the modelled checking cycles.
"""

from repro.core import LibSeal, LibSealConfig
from repro.core.checker import InvariantChecker
from repro.sim.costs import (
    CHECK_PER_ROW_CYCLES,
    CHECK_PER_ROW_CYCLES_VECTORIZED,
    checking_cycles,
)
from repro.ssm import GitSSM
from repro.workloads import GitReplayWorkload


#: (invariant, rows_scanned, rows_vectorized) of the first check over
#: ``build()``'s log, captured at the last commit with a scalar regime.
GOLDEN_FIRST_CHECK = [("soundness", 2740, 2552), ("completeness", 11501, 6899)]


def build():
    libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
    workload = GitReplayWorkload(libseal, seed=11)
    workload.run(120)
    # Roll a branch back to its parent commit, then advertise: the new
    # advertisement contradicts old updates (a soundness violation).
    repo = workload.service.server.repository(workload.repo_names[0])
    branch = next(
        b for b, c in repo.advertise_refs()
        if repo.objects.get_commit(c).parent_id is not None
    )
    repo.attack_rollback(branch)
    workload.fetch_once()
    workload.run(30)
    return libseal


class TestVectorizedCheckingParity:
    def test_verdicts_and_scans_identical(self):
        outcome = build().check_invariants()
        assert not outcome.ok  # the rollback attack is actually detected
        assert [
            (s.name, s.rows_scanned, s.rows_vectorized)
            for s in outcome.invariant_stats
        ] == GOLDEN_FIRST_CHECK
        assert outcome.rows_scanned == 14241
        assert outcome.rows_vectorized == 9451

    def test_full_scan_reference_checker_matches(self):
        libseal = build()
        reference = InvariantChecker(GitSSM(), libseal.audit_log)
        assert (
            libseal.check_invariants().violations
            == reference.run_checks(force_full=True).violations
        )

    def test_incremental_passes_accumulate_vectorized_rows(self):
        libseal = build()
        first = libseal.check_invariants()
        workload = GitReplayWorkload(libseal, seed=13)
        workload.run(20)
        second = libseal.check_invariants()
        modes = {s.name: s.mode for s in second.invariant_stats}
        assert "delta" in modes.values()
        assert libseal.checker.stats.rows_vectorized >= (
            first.rows_vectorized + second.rows_vectorized
        ) - first.rows_scanned  # clamped per invariant, never inflated
        for stats in second.invariant_stats:
            assert stats.rows_vectorized <= stats.rows_scanned


class TestModelledCycles:
    def test_vectorized_rows_are_cheaper(self):
        assert CHECK_PER_ROW_CYCLES_VECTORIZED < CHECK_PER_ROW_CYCLES
        full = checking_cycles(10_000, 1)
        batched = checking_cycles(10_000, 1, rows_vectorized=10_000)
        assert full / batched >= 4.0

    def test_vectorized_rows_clamped_to_scanned(self):
        assert checking_cycles(100, 1, rows_vectorized=500) == checking_cycles(
            100, 1, rows_vectorized=100
        )

    def test_outcome_cycles_reflect_batched_fraction(self):
        outcome = build().check_invariants()
        # Cheaper than the same scan priced all-scalar ...
        all_scalar = sum(
            checking_cycles(s.rows_scanned, 1) for s in outcome.invariant_stats
        )
        assert outcome.modelled_cycles < all_scalar == 6808450.0
        # ... and the checker's own accounting agrees with the cost model.
        expected = sum(
            checking_cycles(s.rows_scanned, 1, s.rows_vectorized)
            for s in outcome.invariant_stats
        )
        assert outcome.modelled_cycles == expected == 3406090.0
