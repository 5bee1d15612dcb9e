"""Equivalence: incremental checking == full re-scan, attacks included.

For every SSM the incremental checker (watermarks + delta evaluation)
must report *exactly* the same violations — same invariants, same rows,
same order — as a full re-scan over the same audit log. The scenarios
deliberately create **boundary-spanning** violations: a checkpoint
establishes the watermark, then the attack makes a *new* driver row
(advertisement/snapshot/list/fetch) contradict *old* history, so the
violating join spans the watermark. An incremental checker that only
looked at new-vs-new rows would miss every one of these.
"""

from repro.core import LibSeal, LibSealConfig
from repro.core.checker import InvariantChecker
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM, OwnCloudSSM
from repro.workloads import (
    DropboxOpsWorkload,
    GitReplayWorkload,
    MessagingWorkload,
    OwnCloudEditWorkload,
)


class ParityHarness:
    """One LibSeal (incremental) plus a reference full-scan checker on
    the same log; every checkpoint asserts exact agreement."""

    def __init__(self, ssm_cls):
        self.libseal = LibSeal(
            ssm_cls(), config=LibSealConfig(flush_each_pair=False)
        )
        self.reference = InvariantChecker(ssm_cls(), self.libseal.audit_log)
        self.outcomes = []

    def checkpoint(self):
        incremental = self.libseal.check_invariants()
        full = self.reference.run_checks(force_full=True)
        assert incremental.violations == full.violations
        self.outcomes.append(incremental)
        return incremental

    def assert_delta_detected(self, *invariants):
        """The last checkpoint ran (at least partly) as a delta and found
        the expected violations — i.e. detection did not silently rely on
        a full-scan fallback."""
        outcome = self.outcomes[-1]
        modes = {s.name: s.mode for s in outcome.invariant_stats}
        for name in invariants:
            assert outcome.violations[name], (name, outcome.violations)
            assert modes[name] == "delta", modes


class TestGitParity:
    def harness(self):
        h = ParityHarness(GitSSM)
        h.workload = GitReplayWorkload(h.libseal, seed=7)
        return h

    def test_honest_run(self):
        h = self.harness()
        for _ in range(4):
            h.workload.run(15)
            assert h.checkpoint().ok

    def test_rollback_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        assert h.checkpoint().ok  # watermark now covers the honest history
        repo = h.workload.service.server.repository(h.workload.repo_names[0])
        branch = next(
            (b for b, c in repo.advertise_refs()
             if repo.objects.get_commit(c).parent_id is not None),
            None,
        )
        if branch is None:
            h.workload.push_once()
            repo = h.workload.service.server.repository(h.workload.repo_names[0])
            branch = next(
                b for b, c in repo.advertise_refs()
                if repo.objects.get_commit(c).parent_id is not None
            )
        repo.attack_rollback(branch)
        h.workload.fetch_once()  # new advert contradicting *old* updates
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("soundness")

    def test_reference_deletion_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        assert h.checkpoint().ok
        repo = h.workload.service.server.repository(h.workload.repo_names[0])
        repo.attack_delete_reference(repo.advertise_refs()[0][0])
        h.workload.fetch_once()
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("completeness")

    def test_violation_persists_across_later_checkpoints(self):
        h = self.harness()
        h.workload.run(30)
        h.checkpoint()
        repo = h.workload.service.server.repository(h.workload.repo_names[0])
        repo.attack_delete_reference(repo.advertise_refs()[0][0])
        h.workload.fetch_once()
        first = h.checkpoint()
        assert not first.ok
        # More honest traffic; the old violation must keep being reported.
        h.workload.run(10)
        second = h.checkpoint()
        assert not second.ok

    def test_trim_between_checkpoints(self):
        h = self.harness()
        h.workload.run(25)
        h.checkpoint()
        h.libseal.trim()
        h.workload.run(25)
        h.checkpoint()
        h.workload.run(10)
        h.checkpoint()


class TestOwnCloudParity:
    def harness(self):
        h = ParityHarness(OwnCloudSSM)
        h.workload = OwnCloudEditWorkload(h.libseal, seed=11)
        return h

    def test_honest_run(self):
        h = self.harness()
        for _ in range(3):
            h.workload.run(20, snapshot_every=10**9)
            assert h.checkpoint().ok

    def test_stale_snapshot_spans_watermark(self):
        h = self.harness()
        h.workload.run(30, snapshot_every=10**9)
        server = h.workload.service.server
        doc = h.workload.documents[0]
        h.workload.snapshot_once(doc)
        assert h.checkpoint().ok
        server.attack_stale_snapshot(doc)
        for _ in range(5):
            h.workload.edit_once(doc)
        h.workload.snapshot_once(doc)  # serves the stale snapshot
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("snapshot_soundness")

    def test_lost_update_full_scan_invariant_still_detects(self):
        h = self.harness()
        h.workload.run(30, snapshot_every=10**9)
        assert h.checkpoint().ok
        server = h.workload.service.server
        doc = h.workload.documents[0]
        server.attack_drop_update(doc, server.document(doc).head_seq)
        h.workload.run(6, snapshot_every=10**9)
        outcome = h.checkpoint()
        assert not outcome.ok
        assert outcome.violations["update_completeness"]
        # update_completeness is the one non-decomposable invariant: it
        # must have evaluated as a full scan, and still agree.
        modes = {s.name: s.mode for s in outcome.invariant_stats}
        assert modes["update_completeness"] == "full"


class TestDropboxParity:
    def harness(self):
        h = ParityHarness(DropboxSSM)
        h.workload = DropboxOpsWorkload(h.libseal, seed=13)
        return h

    def test_honest_run(self):
        h = self.harness()
        for _ in range(3):
            h.workload.run(20)
            assert h.checkpoint().ok

    def test_omitted_file_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        assert h.checkpoint().ok
        server = h.workload.service.server
        account = h.workload.accounts[0]
        live = h.workload._live_files[account]
        server.attack_omit_file(account, live[0])
        h.workload.list_once()  # new list omitting an *old* commit
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("list_completeness")

    def test_corrupt_blocklist_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        assert h.checkpoint().ok
        server = h.workload.service.server
        account = h.workload.accounts[0]
        server.attack_corrupt_blocklist(account, h.workload._live_files[account][0])
        h.workload.list_once()
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("blocklist_soundness")


class TestMessagingParity:
    def harness(self):
        h = ParityHarness(MessagingSSM)
        h.workload = MessagingWorkload(h.libseal)
        return h

    def test_honest_run(self):
        h = self.harness()
        for _ in range(3):
            h.workload.run(20)
            assert h.checkpoint().ok

    def test_dropped_message_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        channel = h.workload.channels[0]
        seq = h.workload.post_once(channel)
        assert h.checkpoint().ok
        h.workload.service.server.attack_drop_message(channel, seq)
        h.workload.fetch_once(channel, h.workload.members[1])
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("delivery_completeness")

    def test_leaked_channel_spans_watermark(self):
        h = self.harness()
        h.workload.run(30)
        assert h.checkpoint().ok
        channel = h.workload.channels[0]
        h.workload.service.server.attack_leak_channel(channel, "outsider")
        h.workload._last_seen[(channel, "outsider")] = 0
        h.workload.fetch_once(channel, "outsider")
        outcome = h.checkpoint()
        assert not outcome.ok
        h.assert_delta_detected("recipient_correctness")


class TestCheckerBookkeeping:
    def test_violation_history_is_capped(self):
        from repro.core.checker import VIOLATION_HISTORY_LIMIT, CheckerStats

        stats = CheckerStats()
        for i in range(VIOLATION_HISTORY_LIMIT + 40):
            stats.record_violation(f"v{i}")
        assert len(stats.violation_history) == VIOLATION_HISTORY_LIMIT
        assert stats.violation_history_dropped == 40
        assert stats.violation_history[0] == "v40"

    def test_stats_count_modes(self):
        h = ParityHarness(GitSSM)
        h.workload = GitReplayWorkload(h.libseal, seed=5)
        h.workload.run(20)
        h.checkpoint()  # full
        h.workload.run(10)
        h.checkpoint()  # delta
        stats = h.libseal.checker.stats
        assert stats.full_evaluations == 2
        assert stats.delta_evaluations == 2
        assert stats.rows_scanned > 0
