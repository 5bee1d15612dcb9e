"""Checker-level batch accounting and the §6.8 cycle model.

Batch filtering in the audit log's SealDB engine may change what a check
*costs*, never what it *finds*: the verdicts must equal the full-rescan
checker's, and the per-invariant ``rows_scanned`` / ``rows_vectorized``
must equal golden values. They were first recorded when the engine still
had a row-at-a-time regime to compare with (which scanned exactly the
same rows and vectorized none); a new access path may only lower them,
and is re-pinned with the old values beside the new. ``rows_vectorized``
then prices the batched subset at the cheaper per-row rate in the
modelled checking cycles.
"""

from repro.core import LibSeal, LibSealConfig
from repro.core.checker import InvariantChecker
from repro.sim.costs import (
    CHECK_PER_ROW_CYCLES,
    CHECK_PER_ROW_CYCLES_VECTORIZED,
    checking_cycles,
)
from repro.ssm import DropboxSSM, GitSSM
from repro.workloads import GitReplayWorkload
from repro.workloads.dropbox_ops import DropboxOpsWorkload


#: (invariant, rows_scanned, rows_vectorized) of the first check over
#: ``build()``'s log. Captured at the last commit with a scalar regime as
#: soundness (2740, 2552) and completeness (11501, 6899); re-pinned when
#: correlated subqueries became index probes (``planner.plan_probe``),
#: which read at most one row of the bucket the SELECT used to scan.
GOLDEN_FIRST_CHECK = [("soundness", 376, 188), ("completeness", 9137, 4535)]


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
        assert outcome.rows_scanned == 9513  # 14241 before probes
        assert outcome.rows_vectorized == 4723  # 9451 before probes

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


#: (invariant, rows_scanned, rows_vectorized) of one check over
#: ``dropbox_log()`` before correlated subqueries became index probes.
DROPBOX_BEFORE_PROBES = [
    ("list_completeness", 12734, 9075),
    ("blocklist_soundness", 4869, 3888),
    ("deletion_soundness", 4869, 3888),
]
#: The same check now: each probe reads at most one row of its bucket.
DROPBOX_WITH_PROBES = [
    ("list_completeness", 9024, 5365),
    ("blocklist_soundness", 1962, 981),
    ("deletion_soundness", 1962, 981),
]


def dropbox_log():
    """A fixed seeded Dropbox log: 241 commits, 59 listings of 981 rows."""
    libseal = LibSeal(DropboxSSM(), config=LibSealConfig(flush_each_pair=False))
    DropboxOpsWorkload(libseal, seed=3, max_live_files=20).run(300)
    return libseal


class TestDropboxProbeCounts:
    def test_one_check_probes_and_scans(self):
        libseal = dropbox_log()
        stats = libseal.audit_log.db.scan_stats
        probes = stats.index_probes
        outcome = libseal.check_invariants()
        assert outcome.ok
        counts = [
            (s.name, s.rows_scanned, s.rows_vectorized)
            for s in outcome.invariant_stats
        ]
        assert counts == DROPBOX_WITH_PROBES
        # Every correlated subquery was an index probe before as well:
        # the count is unchanged, the rows each one reads are not.
        assert stats.index_probes - probes == 4340
        for now, before in zip(counts, DROPBOX_BEFORE_PROBES):
            assert now[1] < before[1] and now[2] < before[2]


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
        assert outcome.modelled_cycles < all_scalar == 4680850.0  # was 6808450
        # ... and the checker's own accounting agrees with the cost model.
        expected = sum(
            checking_cycles(s.rows_scanned, 1, s.rows_vectorized)
            for s in outcome.invariant_stats
        )
        assert outcome.modelled_cycles == expected == 2980570.0  # was 3406090
