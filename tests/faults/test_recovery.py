"""The crash-recovery protocol: every outcome class, plus LibSeal.recover."""

import copy
import os

import pytest

from repro import faults
from repro.audit import AuditLog, RoteCluster
from repro.audit.log import HEAD_RECORD, INTENT_RECORD, UNSUPPORTED_SNAPSHOT
from repro.audit.persistence import InMemoryStorage, LogStorage, frame
from repro.audit.recovery import DETECTED_OUTCOMES, RecoveryOutcome, recover_log
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core import LibSeal, LibSealConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import (
    AuditBufferFullError,
    RollbackError,
    StorageError,
)
from repro.faults import FaultEvent, FaultPlan, InjectedCrash
from repro.http import HttpRequest, HttpResponse
from repro.sgx.sealing import SigningAuthority
from repro.ssm.base import ServiceSpecificModule
from repro.ssm.messaging import MessagingSSM
from repro.workloads.messaging_traffic import MessagingWorkload
from tests.audit.records import V2_IMAGE, V2_KEY, V2_SCHEMA, record_spans, records
from tests.quorum_outage import cut_off, reconnect

SCHEMA = "CREATE TABLE updates(time INTEGER, note TEXT)"


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"recovery-key"))


def make_log(storage, key, rote):
    return AuditLog(SCHEMA, key, rote, storage=storage)


def last_record(path, key):
    """The kind of the last record of the image at ``path``."""
    return records(path.read_bytes(), key, schema=SCHEMA)[-1][0]


def seal_epochs(log, count, start=0):
    for epoch in range(start, start + count):
        log.append("updates", (epoch, f"epoch-{epoch}"))
        log.seal_epoch()


class TestRecoveryOutcomes:
    def test_no_snapshot(self, tmp_path, key):
        storage = LogStorage(tmp_path / "log.bin")
        report = recover_log(storage, SCHEMA, key, key.public_key(), RoteCluster(f=1))
        assert report.outcome is RecoveryOutcome.NO_SNAPSHOT
        assert report.recovered and not report.detected
        assert report.log is None

    def test_clean_resume(self, tmp_path, key):
        rote = RoteCluster(f=1)
        seal_epochs(make_log(LogStorage(tmp_path / "log.bin"), key, rote), 3)
        storage = LogStorage(tmp_path / "log.bin")
        report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert report.entries == 3
        assert report.counter == report.live_counter == 3
        # The recovered log keeps serving.
        report.log.append("updates", (99, "after"))
        report.log.seal_epoch()
        report.log.verify(key.public_key())

    def test_torn_tail_truncated(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        seal_epochs(make_log(LogStorage(path), key, rote), 2)
        # A crash mid-write left a partial tmp behind the good snapshot.
        path.with_suffix(".bin.tmp").write_bytes(b"torn tail bytes")
        storage = LogStorage(path)
        report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.TORN_TAIL_TRUNCATED
        assert report.torn_tmp_found
        assert report.recovered
        assert report.entries == 2

    def test_in_flight_discarded_and_resealed(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 2)
        plan = FaultPlan(
            [FaultEvent("audit.seal", "crash_after_increment", at=1)]
        )
        with pytest.raises(InjectedCrash):
            with faults.inject(plan):
                seal_epochs(log, 1, start=2)
        # Counter advanced to 3, the image's last head is epoch 2's and an
        # intent record follows it.
        storage = LogStorage(path)
        assert last_record(path, key) == INTENT_RECORD
        report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
        assert report.intent_found
        assert report.resealed
        # The closing re-seal caught the counter up with a head of its own.
        assert report.counter == rote.retrieve("libseal-log")
        assert last_record(path, key) == HEAD_RECORD
        assert report.entries == 2  # the unacknowledged pair is discarded
        report.log.verify(key.public_key())

    def test_in_flight_reseal_deferred_when_storage_down(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 1)
        with pytest.raises(InjectedCrash):
            with faults.inject(
                FaultPlan([FaultEvent("audit.seal", "crash_after_increment")])
            ):
                seal_epochs(log, 1, start=1)
        # At restart the gap is explained, but the closing re-seal hits a
        # storage fault: classification stands, re-seal is deferred.
        storage = LogStorage(path)
        with faults.inject(
            FaultPlan([FaultEvent("storage.save", "io_error", at=1)])
        ):
            report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
        assert not report.resealed
        assert isinstance(report.error, StorageError)
        assert "re-seal deferred" in report.detail

    def test_rollback_detected_on_stale_snapshot(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        plan = FaultPlan(
            [FaultEvent("storage.load", "stale_read", at=1, params={"back": 1})]
        )
        with faults.inject(plan):
            seal_epochs(log, 3)
            storage = LogStorage(path)  # restart; provider serves epoch 2
            report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.ROLLBACK_DETECTED
        assert report.detected
        assert report.log is None
        assert isinstance(report.error, RollbackError)

    def test_counter_gap_without_intent_is_rollback(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 1)
        with pytest.raises(InjectedCrash):
            with faults.inject(
                FaultPlan([FaultEvent("audit.seal", "crash_after_increment")])
            ):
                seal_epochs(log, 1, start=1)
        # An adversary cutting the intent record off cannot turn the gap
        # into a silent resume: without the exculpatory evidence the
        # conservative classification is rollback.
        path.write_bytes(path.read_bytes()[: record_spans(path.read_bytes())[-1][0]])
        assert last_record(path, key) == HEAD_RECORD
        report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.ROLLBACK_DETECTED

    def test_forged_intent_buys_the_adversary_nothing(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 1)
        with pytest.raises(InjectedCrash):
            with faults.inject(
                FaultPlan([FaultEvent("audit.seal", "crash_after_increment")])
            ):
                seal_epochs(log, 1, start=1)
        # A forged intent record carries no valid record MAC: the image is
        # refused outright, and nothing resumes on it.
        blob = path.read_bytes()
        start = record_spans(blob)[-1][0]
        forged = frame(INTENT_RECORD + b"INTENT2\x00forged" + bytes(32))
        path.write_bytes(blob[:start] + forged)
        report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.TAMPER_DETECTED
        assert report.detected and report.log is None

    def test_counter_gap_in_a_v2_image_is_refused(self, tmp_path):
        """An image in the previous format whose last seal crashed after
        its intent record is refused as that format: its ``INTENT2`` seal
        intent explains no counter gap, and nothing resumes on it."""
        rote = RoteCluster(f=1)
        rote.increment("libseal-log")
        rote.increment("libseal-log")  # the head holds 1: a gap of one
        path = tmp_path / "log.bin"
        path.write_bytes(V2_IMAGE)
        report = recover_log(
            LogStorage(path), V2_SCHEMA, V2_KEY, V2_KEY.public_key(), rote
        )
        assert report.outcome is RecoveryOutcome.TAMPER_DETECTED
        assert UNSUPPORTED_SNAPSHOT in report.detail
        assert not report.intent_found and report.log is None

    def test_tamper_detected_on_corrupt_read(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        seal_epochs(make_log(LogStorage(path), key, rote), 2)
        with faults.inject(
            FaultPlan([FaultEvent("storage.load", "corrupt_read", at=1)])
        ):
            report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.TAMPER_DETECTED
        assert report.detected
        assert report.log is None

    def test_tamper_detected_on_sealed_blob_corruption(self, tmp_path, key):
        rote = RoteCluster(f=1)
        authority = SigningAuthority("libseal-tests")
        path = tmp_path / "log.bin"
        storage = SealedLogStorage(
            LogStorage(path), make_log_enclave(authority)
        )
        seal_epochs(make_log(storage, key, rote), 2)
        restarted = SealedLogStorage(
            LogStorage(path), make_log_enclave(authority)
        )
        with faults.inject(
            FaultPlan([FaultEvent("sealed.load", "seal_corrupt", at=1)])
        ):
            report = recover_log(restarted, SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.TAMPER_DETECTED

    def test_freshness_unverifiable_then_heal(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        seal_epochs(make_log(LogStorage(path), key, rote), 2)
        cut_off(rote, range(rote.f + 1))
        report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE
        assert not report.detected and not report.recovered
        # Structure verified: the log is handed back for degraded serving.
        assert report.log is not None
        assert report.entries == 2
        # Once the quorum heals, the same snapshot certifies clean.
        reconnect(rote)
        healed = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert healed.outcome is RecoveryOutcome.CLEAN_RESUME

    def test_storage_unavailable(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        seal_epochs(make_log(LogStorage(path), key, rote), 1)
        with faults.inject(
            FaultPlan([FaultEvent("storage.load", "io_error", at=1)])
        ):
            report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.STORAGE_UNAVAILABLE
        assert not report.detected and not report.recovered
        assert isinstance(report.error, StorageError)


class PairSSM(ServiceSpecificModule):
    """Minimal SSM: one tuple per pair, no invariants."""

    name = "pairs"
    schema_sql = "CREATE TABLE pairs(time INTEGER, path TEXT)"
    invariants = {}
    trimming_queries = []

    def log(self, request, response, emit, time):
        emit("pairs", (time, request.path))


def drive(libseal, count, start=0):
    for index in range(start, start + count):
        libseal.log_pair(HttpRequest("GET", f"/p/{index}"), HttpResponse(200))


class TestLibSealRecover:
    def test_crash_mid_run_resumes_with_zero_acknowledged_loss(self, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(PairSSM(), storage=LogStorage(path))
        plan = FaultPlan([FaultEvent("libseal.pair", "crash_after_log", at=3)])
        with pytest.raises(InjectedCrash):
            with faults.inject(plan):
                drive(libseal, 5)
        # Pairs 1-2 were sealed and acknowledged; pair 3 crashed before its
        # seal, so it was never acknowledged and is legitimately discarded.
        recovered, report = LibSeal.recover(
            PairSSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert recovered is not None
        assert recovered.audit_log.row_count("pairs") == 2
        drive(recovered, 3, start=10)
        recovered.verify_log()
        assert recovered.audit_log.row_count("pairs") == 5

    def test_recover_refuses_to_resume_on_rollback(self, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(PairSSM(), storage=LogStorage(path))
        plan = FaultPlan(
            [FaultEvent("storage.load", "stale_read", at=1, params={"back": 2})]
        )
        with faults.inject(plan):
            drive(libseal, 4)
            recovered, report = LibSeal.recover(
                PairSSM(),
                LogStorage(path),
                signing_key=libseal.signing_key,
                rote=libseal.rote,
            )
        assert recovered is None
        assert report.outcome is RecoveryOutcome.ROLLBACK_DETECTED

    def test_recover_serves_degraded_when_quorum_is_down(self, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(PairSSM(), storage=LogStorage(path))
        drive(libseal, 3)
        rote = libseal.rote
        cut_off(rote, range(rote.f + 1))
        recovered, report = LibSeal.recover(
            PairSSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=rote,
        )
        assert report.outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE
        assert recovered is not None
        assert recovered.degraded.active
        assert recovered.degraded.reason == "freshness-unverifiable"
        # Pairs keep flowing (buffered, never dropped) while degraded.
        drive(recovered, 2, start=10)
        assert recovered.degraded.unsealed_pairs == 2
        # The quorum heals: one reseal covers the whole buffered tail.
        reconnect(rote)
        assert recovered.try_reseal()
        assert not recovered.degraded.active
        assert recovered.degraded.unsealed_pairs == 0
        recovered.verify_log()

    def test_buffer_bound_blocks_instead_of_dropping(self, tmp_path):
        path = tmp_path / "log.bin"
        config = LibSealConfig(max_unsealed_pairs=3)
        libseal = LibSeal(PairSSM(), config=config, storage=LogStorage(path))
        rote = libseal.rote
        cut_off(rote, range(rote.f + 1))
        drive(libseal, 3)
        assert libseal.degraded.active
        assert libseal.degraded.unsealed_pairs == 3
        with pytest.raises(AuditBufferFullError):
            drive(libseal, 1, start=3)
        # No audit record was dropped: the blocked pair never entered.
        assert libseal.audit_log.row_count("pairs") == 3
        reconnect(rote)
        drive(libseal, 1, start=4)
        assert not libseal.degraded.active
        assert libseal.audit_log.row_count("pairs") == 4
        libseal.verify_log()


class StaleRestart:
    """Messaging, f = 1: 10 pairs, the host keeps that snapshot, 10 more
    pairs; then replicas power-cycle and LibSEAL restarts from the copy."""

    def __init__(self):
        self.libseal = LibSeal(MessagingSSM(), storage=InMemoryStorage())
        self.rote = self.libseal.rote
        workload = MessagingWorkload(
            self.libseal, channels=1, members=2, fetch_ratio=0.0, seed=7
        )
        for _ in range(10):
            workload.post_once()
        self.kept = copy.deepcopy(self.libseal.storage)
        for _ in range(10):
            workload.post_once()

    def power_cycle(self, nodes):
        """Cut power to ``nodes`` together, then restart them all."""
        for i in nodes:
            self.rote.crash(i)
        for i in nodes:
            self.rote.recover(i)

    def recover(self, keep_client_cache=False):
        if not keep_client_cache:
            # A restarted enclave keeps no client memory: the committed
            # cache belonged to the old instance. Emptied by hand until
            # recovery builds its own client (ROADMAP item 14).
            self.rote._committed.clear()
        _, report = LibSeal.recover(
            MessagingSSM(),
            self.kept,
            signing_key=self.libseal.signing_key,
            rote=self.rote,
        )
        return report.outcome


class TestStaleSnapshotAfterReplicaPowerCycle:
    """A stale snapshot never resumes clean, whatever the replicas lost."""

    def test_whole_group_power_cycle_never_resumes_clean(self):
        run = StaleRestart()
        run.power_cycle(range(run.rote.n))
        outcome = run.recover()
        assert outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE or (
            outcome in DETECTED_OUTCOMES
        ), outcome
        assert not any(replica.confirmed for replica in run.rote.nodes)

    def test_whole_group_power_cycle_with_old_client_cache(self):
        run = StaleRestart()
        run.power_cycle(range(run.rote.n))
        outcome = run.recover(keep_client_cache=True)
        assert outcome in (
            RecoveryOutcome.FRESHNESS_UNVERIFIABLE,
            RecoveryOutcome.ROLLBACK_DETECTED,
        ), outcome

    def test_control_replicas_intact(self):
        run = StaleRestart()
        assert run.recover() is RecoveryOutcome.ROLLBACK_DETECTED

    def test_control_f_replicas_power_cycled(self):
        run = StaleRestart()
        run.power_cycle(range(run.rote.f))
        assert run.recover() is RecoveryOutcome.ROLLBACK_DETECTED


class TestDurabilityRegression:
    """Satellite: LogStorage.save atomicity/durability hardening."""

    def test_failed_replace_is_typed_and_leaves_no_tmp(
        self, tmp_path, monkeypatch
    ):
        storage = LogStorage(tmp_path / "log.bin")
        storage.save(b"good snapshot")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(StorageError):
            storage.save(b"next snapshot")
        assert not storage._tmp_path.exists()
        assert storage.path.read_bytes() == b"good snapshot"

    def test_save_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        import repro.audit.persistence as persistence

        synced = []
        monkeypatch.setattr(
            persistence, "_fsync_directory", lambda p: synced.append(p)
        )
        storage = LogStorage(tmp_path / "log.bin")
        storage.save(b"blob")
        assert synced == [tmp_path]

    def test_intent_sidecar_roundtrip(self, tmp_path):
        storage = LogStorage(tmp_path / "log.bin")
        assert storage.load_intent("rotation") is None
        storage.save_intent(b"intent bytes", "rotation")
        assert storage.load_intent("rotation") == b"intent bytes"
        # Survives a restart (it is a durable write-ahead marker) ...
        assert LogStorage(tmp_path / "log.bin").load_intent("rotation") == b"intent bytes"
        storage.clear_intent("rotation")
        assert storage.load_intent("rotation") is None


class TestRemovalCrash:
    """A benign crash inside a removal's re-seal — after its ROTE
    increment, before the image is replaced — is the enclave's own seal
    in flight, not a rollback: the removal seals a *shorter* chain, but
    its intent record is bound to the head it follows. The pre-removal
    state is resealed and the removal runs again at its next interval."""

    @pytest.mark.parametrize("removal", ["trim", "remove_where"])
    def test_crash_after_increment_is_in_flight(self, tmp_path, key, removal):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 4)
        with pytest.raises(InjectedCrash):
            with faults.inject(
                FaultPlan([FaultEvent("audit.seal", "crash_after_increment")])
            ):
                if removal == "trim":
                    log.trim(["DELETE FROM updates WHERE time < 2"])
                else:
                    log.remove_where(lambda table, values: values[0] < 2)
        report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED, report.describe()
        assert report.entries == 4 and report.resealed
        assert report.counter == rote.retrieve("libseal-log") == 6
        recovered, again = LibSeal.recover(
            RemovalSSM(), LogStorage(path), signing_key=key, rote=rote
        )
        assert again.outcome is RecoveryOutcome.CLEAN_RESUME
        assert recovered.trim() == 2  # the removal runs again

    def test_crash_after_the_image_replace_keeps_the_removal(self, tmp_path, key):
        rote = RoteCluster(f=1)
        path = tmp_path / "log.bin"
        log = make_log(LogStorage(path), key, rote)
        seal_epochs(log, 4)
        with pytest.raises(InjectedCrash):
            with faults.inject(FaultPlan([FaultEvent("audit.seal", "crash_after_save")])):
                log.trim(["DELETE FROM updates WHERE time < 2"])
        report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert report.entries == 2


class RemovalSSM(ServiceSpecificModule):
    name = "removal"
    schema_sql = SCHEMA
    invariants = {}
    trimming_queries = ["DELETE FROM updates WHERE time < 2"]

    def log(self, request, response, emit, time):
        emit("updates", (time, request.path))
