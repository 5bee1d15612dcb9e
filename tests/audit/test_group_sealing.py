"""Group sealing: the deferral window, its crash story, and parity.

The contract under test: grouping only changes *when* seal epochs run,
never what is sealed. Hash chains and invariant verdicts are
bit-identical to per-pair sealing; a crash mid-window loses only
unacknowledged pairs (CLEAN_RESUME); a crash mid-group-seal classifies
exactly like a per-pair seal crash (one window = one ROTE increment);
degraded mode suspends grouping so the unsealed-pair bound counts
per-pair.
"""

import pytest

from repro import faults
from repro.audit.group_sealing import GroupSealPolicy, GroupSealer
from repro.audit.persistence import LogStorage
from repro.audit.recovery import RecoveryOutcome
from repro.core import LibSeal, LibSealConfig
from repro.faults import FaultEvent, FaultPlan, InjectedCrash
from repro.http import LIBSEAL_CHECK_HEADER, HttpRequest, HttpResponse
from repro.ssm.base import ServiceSpecificModule
from tests.quorum_outage import cut_off, reconnect


class PairSSM(ServiceSpecificModule):
    """One tuple per pair; one invariant flagging paths marked bad."""

    name = "pairs"
    schema_sql = "CREATE TABLE pairs(time INTEGER, path TEXT)"
    invariants = {"no-bad-paths": "SELECT * FROM pairs WHERE path = '/bad'"}
    trimming_queries = []

    def log(self, request, response, emit, time):
        emit("pairs", (time, request.path))


def drive(libseal, count, start=0, path="/p"):
    for index in range(start, start + count):
        libseal.log_pair(
            HttpRequest("GET", f"{path}/{index}"), HttpResponse(200)
        )


def grouped_config(pairs, **kwargs):
    return LibSealConfig(group_seal_pairs=pairs, **kwargs)


class TestGroupSealerUnit:
    def test_policy_rejects_empty_window(self):
        with pytest.raises(ValueError):
            GroupSealPolicy(max_pairs=0)

    def test_policy_rejects_negative_cycle_budget(self):
        with pytest.raises(ValueError):
            GroupSealPolicy(max_cycles=-1.0)

    def test_default_policy_is_per_pair(self):
        sealer = GroupSealer()
        assert not sealer.policy.grouped
        assert sealer.stage() is True  # every pair closes its own window
        assert sealer.drain() == 1
        assert sealer.pending_pairs == 0

    def test_window_closes_on_pair_bound(self):
        sealer = GroupSealer(GroupSealPolicy(max_pairs=3))
        assert sealer.stage() is False
        assert sealer.stage() is False
        assert sealer.stage() is True
        assert sealer.drain() == 3
        assert sealer.stats.closed_by_pairs == 1
        assert sealer.stats.closed_by_cycles == 0

    def test_window_closes_on_cycle_budget(self):
        sealer = GroupSealer(GroupSealPolicy(max_pairs=100, max_cycles=10.0))
        assert sealer.stage(cycles=4.0) is False
        assert sealer.stage(cycles=7.0) is True  # 11 >= 10
        assert sealer.drain() == 2
        assert sealer.stats.closed_by_cycles == 1

    def test_zero_cycle_budget_disables_cycle_bound(self):
        sealer = GroupSealer(GroupSealPolicy(max_pairs=5, max_cycles=0.0))
        for _ in range(4):
            assert sealer.stage(cycles=1e12) is False
        assert sealer.stage() is True

    def test_drain_resets_window_and_counts_forced(self):
        sealer = GroupSealer(GroupSealPolicy(max_pairs=8))
        sealer.stage(cycles=5.0)
        sealer.stage(cycles=5.0)
        assert sealer.pending_cycles == 10.0
        assert sealer.drain(forced=True) == 2
        assert sealer.pending_pairs == 0
        assert sealer.pending_cycles == 0.0
        assert sealer.stats.forced_flushes == 1
        assert sealer.drain() == 0  # empty drain is not a window
        assert sealer.stats.windows_closed == 1


class TestLibSealGroupSealing:
    def test_window_amortises_seal_epochs(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(4))
        drive(libseal, 8)
        assert libseal.audit_log.epochs_sealed == 2
        assert libseal.audit_log.row_count("pairs") == 8
        assert libseal.group_sealer.pending_pairs == 0
        libseal.verify_log()

    def test_partial_window_is_observable_and_flushable(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(4))
        drive(libseal, 6)
        assert libseal.audit_log.epochs_sealed == 1
        status = libseal.audit_status()
        assert status["pending_group_pairs"] == 2
        assert status["group_seal_window"] == 4
        assert libseal.flush_pending()
        assert libseal.audit_log.epochs_sealed == 2
        assert libseal.audit_status()["pending_group_pairs"] == 0
        libseal.verify_log()

    def test_flush_pending_with_empty_window_is_a_noop(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(4))
        drive(libseal, 4)
        sealed = libseal.audit_log.epochs_sealed
        assert libseal.flush_pending()
        assert libseal.audit_log.epochs_sealed == sealed

    def test_cycle_budget_closes_windows_early(self):
        # Budget below one pair's modelled append cycles: every pair seals.
        libseal = LibSeal(
            PairSSM(), config=grouped_config(1000, group_seal_cycle_budget=1.0)
        )
        drive(libseal, 3)
        assert libseal.audit_log.epochs_sealed == 3
        assert libseal.group_sealer.stats.closed_by_cycles == 3

    def test_chain_and_verdicts_identical_to_per_pair(self):
        grouped = LibSeal(PairSSM(), config=grouped_config(5))
        legacy = LibSeal(PairSSM())
        for libseal in (grouped, legacy):
            drive(libseal, 9)
            libseal.log_pair(HttpRequest("GET", "/bad"), HttpResponse(200))
        grouped.flush_pending()
        assert grouped.audit_log.chain.head == legacy.audit_log.chain.head
        assert len(grouped.audit_log.chain) == len(legacy.audit_log.chain)
        request = HttpRequest("GET", "/check")
        request.headers.set(LIBSEAL_CHECK_HEADER, "1")
        verdicts = [
            libseal.log_pair(request, HttpResponse(200))
            for libseal in (grouped, legacy)
        ]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].startswith("VIOLATIONS")
        # Seal counts are the only divergence grouping is allowed to have.
        assert legacy.audit_log.epochs_sealed > grouped.audit_log.epochs_sealed
        grouped.flush_pending()  # verification requires a sealed head
        grouped.verify_log()
        legacy.verify_log()

    def test_trim_drains_the_open_window(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(10))
        drive(libseal, 3)
        assert libseal.group_sealer.pending_pairs == 3
        libseal.trim()  # trim's internal seal covers the staged pairs
        assert libseal.group_sealer.pending_pairs == 0
        libseal.verify_log()

    def test_degraded_mode_suspends_grouping(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(4))
        rote = libseal.rote
        cut_off(rote, range(rote.f + 1))
        # The outage is discovered when the first window closes; after
        # that every pair retries its own seal — exact per-pair unsealed
        # accounting, no deferral while freshness is at risk.
        drive(libseal, 4)
        assert libseal.degraded.active
        assert libseal.degraded.unsealed_pairs == 4
        assert libseal.group_sealer.pending_pairs == 0
        drive(libseal, 2, start=4)
        assert libseal.degraded.unsealed_pairs == 6
        assert libseal.group_sealer.pending_pairs == 0
        reconnect(rote)
        assert libseal.try_reseal()
        assert not libseal.degraded.active
        assert libseal.degraded.unsealed_pairs == 0
        libseal.verify_log()

    def test_seal_failure_counts_whole_window_as_unsealed(self):
        libseal = LibSeal(PairSSM(), config=grouped_config(3))
        rote = libseal.rote
        drive(libseal, 2)  # staged, no seal yet
        cut_off(rote, range(rote.f + 1))
        drive(libseal, 1)  # closes the window; the seal fails
        assert libseal.degraded.active
        assert libseal.degraded.unsealed_pairs == 3
        reconnect(rote)
        assert libseal.try_reseal()
        assert libseal.degraded.unsealed_pairs == 0
        libseal.verify_log()


class TestGroupSealingCrashRecovery:
    def test_crash_mid_window_resumes_clean_without_staged_pairs(self, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(
            PairSSM(), config=grouped_config(8), storage=LogStorage(path)
        )
        drive(libseal, 11)  # one full window sealed, 3 pairs staged
        assert libseal.audit_log.epochs_sealed == 1
        assert libseal.audit_status()["pending_group_pairs"] == 3
        # Crash: nothing of the open window ever reached storage, and in
        # grouped mode none of those pairs was acknowledged.
        recovered, report = LibSeal.recover(
            PairSSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert recovered is not None
        assert recovered.audit_log.row_count("pairs") == 8
        assert recovered.audit_status()["pending_group_pairs"] == 0
        drive(recovered, 8, start=20)
        recovered.verify_log()

    def test_crash_during_group_seal_classifies_as_in_flight(self, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(
            PairSSM(), config=grouped_config(3), storage=LogStorage(path)
        )
        drive(libseal, 3)  # first window seals cleanly
        plan = FaultPlan([FaultEvent("audit.seal", "crash_after_increment", at=1)])
        with pytest.raises(InjectedCrash):
            with faults.inject(plan):
                drive(libseal, 3, start=3)  # second window's seal crashes
        # One group seal is one ROTE increment, so the counter gap is
        # still exactly 1 and the in-flight classification holds.
        recovered, report = LibSeal.recover(
            PairSSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
        assert recovered is not None
        # The crashed window's pairs were never acknowledged: discarded.
        assert recovered.audit_log.row_count("pairs") == 3
        drive(recovered, 3, start=10)
        recovered.verify_log()
