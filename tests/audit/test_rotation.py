"""Key-rotation coordinator: WAL crash-safety, grace windows, fail-closed.

The acceptance bar for the epochal key lifecycle:

- a crash injected between *any* two steps of the rotation WAL replays
  to exactly one active epoch with no unsealable log snapshot;
- a replica stranded on a pre-rotation build degrades the quorum to an
  availability fault (freshness-unverifiable), never a rollback claim;
- attestations MACed under a retired group key are rejected by the
  quorum logic, so a Byzantine node cannot launder pre-rotation replays;
- the rotation itself (and enclave upgrades) are audited events inside
  the hash-chained log;
- the MRENCLAVE→MRSIGNER reseal path migrates policy during upgrade.
"""

import pytest

from repro.audit.hashchain import RotationIntent
from repro.audit.log import EVENTS_TABLE
from repro.audit.persistence import InMemoryStorage
from repro.audit.recovery import RecoveryOutcome, recover_log
from repro.audit.rotation import KeyRotationCoordinator, stranded_blobs
from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import CounterAttestation, CounterReply
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core.libseal import LibSeal, LibSealConfig
from repro.errors import RetiredEpochError, SealingError
from repro.sgx import Enclave, EnclaveConfig, EpochState, KeyPolicy
from repro.sgx.sealing import SigningAuthority
from repro.sim.network import SimNetwork
from repro.ssm.messaging import MessagingSSM
from tests.wal_matrix import WalCase, crash_at, crash_matrix


class Stack:
    """A LibSeal on sealed storage with a live replica group."""

    def __init__(self, f: int = 1, seed: int = 7):
        self.network = SimNetwork(seed=seed, latency_steps=1, jitter_steps=1)
        self.cluster = RoteCluster(
            f=f, network=self.network, cluster_id="rot", seed=seed
        )
        self.authority = self.cluster.authority
        self.inner = InMemoryStorage()
        self.log_enclave = make_log_enclave(self.authority)
        self.storage = SealedLogStorage(self.inner, self.log_enclave)
        self.config = LibSealConfig(rote_f=f, log_id="rotation-test")
        self.libseal = LibSeal(
            MessagingSSM(),
            config=self.config,
            rote=self.cluster,
            storage=self.storage,
        )
        self.coordinator = KeyRotationCoordinator(self.libseal)

    def seed_activity(self, seals: int = 2) -> None:
        """Seal a few epochs so replicas hold counter state."""
        for i in range(seals):
            self.libseal.audit_log.append_event("workload", f"pair-{i}")
            self.libseal.audit_log.seal_epoch()

    def rotation_events(self) -> list[str]:
        return [
            values[2]
            for table, values in self.libseal.audit_log.tuples()
            if table.lower() == EVENTS_TABLE and values[1] == "key_rotation"
        ]

    def assert_converged(self, expected_epoch: int) -> None:
        """The crash-safety oracle: one epoch, no WAL, no dead snapshot."""
        authority = self.authority
        active = [
            epoch
            for epoch, entry in authority.epochs.items()
            if entry.state is EpochState.ACTIVE
        ]
        assert active == [expected_epoch]
        assert authority.current_epoch == expected_epoch
        assert not self.coordinator.pending()
        assert self.inner.exists()
        assert stranded_blobs(authority, self.inner) == []


@pytest.fixture
def stack():
    s = Stack()
    s.seed_activity()
    return s


class TestHappyPath:
    def test_rotate_end_to_end(self, stack):
        report = stack.coordinator.rotate("scheduled hygiene")
        assert report.to_epoch == 2
        assert report.log_resealed
        assert len(report.acks) == stack.cluster.n
        assert report.converged
        # Every replica adopted, so the old epoch retired immediately.
        assert report.retired == [1]
        stack.assert_converged(2)

    def test_rotation_is_audited_in_the_log(self, stack):
        stack.coordinator.rotate("compliance")
        events = stack.rotation_events()
        assert events == ["epoch 1->2: compliance"]
        # The event rides the hash chain like any service tuple.
        stack.libseal.verify_log()

    def test_audit_status_reports_epoch(self, stack):
        status = stack.libseal.audit_status()
        assert status["key_epoch"] == 1
        stack.coordinator.rotate("scheduled")
        assert stack.libseal.audit_status()["key_epoch"] == 2
        assert stack.libseal.audit_status()["key_rotations"] == 1

    def test_replica_blobs_migrate_to_new_epoch(self, stack):
        stack.coordinator.rotate("scheduled")
        for replica in stack.cluster.nodes:
            assert replica.epoch == 2
            assert replica.epoch_migrations == 1
            # The counters themselves are re-MACed into the new epoch.
            assert all(att.epoch == 2 for att in replica._state.values())

    def test_sequential_rotations_bound_the_registry(self, stack):
        for _ in range(3):
            stack.coordinator.rotate("again")
        assert stack.authority.current_epoch == 4
        states = {
            epoch: entry.state for epoch, entry in stack.authority.epochs.items()
        }
        assert states[4] is EpochState.ACTIVE
        # grace_window=1 retires everything older than current-1; the
        # coordinator retired even epoch 3 because the group converged.
        assert states[1] is EpochState.RETIRED
        assert states[2] is EpochState.RETIRED
        assert states[3] is EpochState.RETIRED


def _seeded_stack() -> Stack:
    stack = Stack()
    stack.seed_activity()
    return stack


def _assert_rotation_converged(stack: Stack, report) -> None:
    assert report.to_epoch == 2
    stack.assert_converged(2)
    # Idempotence: the registry rotated exactly once and the audited
    # record was appended exactly once, no matter where the crash hit.
    assert stack.authority.rotations == 1
    assert stack.rotation_events() == ["epoch 1->2: scheduled"]


ROTATION_CASE = WalCase(
    coordinator_type=KeyRotationCoordinator,
    build=_seeded_stack,
    coordinator=lambda stack: stack.coordinator,
    start=lambda stack: stack.coordinator.rotate("scheduled"),
    assert_converged=_assert_rotation_converged,
)


class TestCrashAtEveryStep:
    test_crash_then_resume_converges = crash_matrix(ROTATION_CASE)

    def test_resume_without_wal_is_noop(self, stack):
        assert stack.coordinator.resume() is None

    def test_double_resume_is_idempotent(self):
        stack = _seeded_stack()
        crash_at(stack.coordinator, 3, lambda: stack.coordinator.rotate("scheduled"))
        assert stack.coordinator.resume() is not None
        assert stack.coordinator.resume() is None  # WAL cleared
        stack.assert_converged(2)

    def test_forged_wal_entry_is_discarded(self, stack):
        intent = RotationIntent("rotation-test", 1, 2, "forged", bytes(32))
        stack.storage.save_intent(intent.encode(), "rotation")
        assert stack.coordinator.resume() is None
        assert not stack.coordinator.pending()
        assert stack.authority.current_epoch == 1

    def test_stale_wal_replay_is_discarded(self, stack):
        """A provider replaying a *completed* rotation's validly tagged
        WAL entry must not re-run it against today's registry: that would
        force-retire a grace-window epoch a healthy replica still needs."""
        stack.coordinator.rotate("first")  # 1 -> 2; WAL written, then cleared
        # The blob the provider copied meanwhile (the tag is deterministic).
        stale = RotationIntent.seal(
            stack.libseal.signing_key, stack.config.log_id, 1, 2, "first"
        ).encode()
        stack.cluster.nodes[0].pin()  # one replica lags behind ...
        report = stack.coordinator.rotate("second")  # 2 -> 3
        # ... so epoch 2 correctly stays in the grace window for it.
        assert report.acks[0] == 2 and report.retired == []
        assert stack.authority.epoch_state(2) is EpochState.GRACE

        stack.storage.save_intent(stale, "rotation")
        assert stack.coordinator.resume() is None
        assert stack.coordinator.resumed == 0
        assert not stack.coordinator.pending()
        assert stack.authority.epoch_state(2) is EpochState.GRACE


class TestStaleReplica:
    def _strand(self, stack, count=2):
        stuck = list(range(count))
        for i in stuck:
            stack.cluster.nodes[i].pin()
        return stuck

    def test_stranded_quorum_degrades_not_rollback(self, stack):
        stuck = self._strand(stack)
        report = stack.coordinator.rotate("scheduled")
        # The re-seal could not reach a quorum: rotation stays pending.
        assert not report.log_resealed
        assert stack.libseal.degraded.active
        assert stack.libseal.degraded.reason == "freshness-unverifiable"
        assert stack.coordinator.pending()
        # Stragglers acked their old epoch, so nothing was retired.
        assert {report.acks[i] for i in stuck} == {1}
        assert report.retired == []
        assert stack.authority.epoch_state(1) is EpochState.GRACE

    def test_recovery_classifies_stranded_quorum_as_unverifiable(self, stack):
        self._strand(stack)
        stack.coordinator.rotate("scheduled")
        clone = InMemoryStorage()
        clone.save(stack.inner.load())
        clone._sidecars = dict(stack.inner._sidecars)
        report = recover_log(
            SealedLogStorage(clone, stack.log_enclave),
            stack.libseal.ssm.schema_sql,
            stack.libseal.signing_key,
            stack.libseal.signing_key.public_key(),
            stack.cluster,
            log_id=stack.config.log_id,
        )
        assert report.outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE
        assert not report.detected

    def test_recovery_fails_closed_on_retired_blob(self, stack):
        self._strand(stack)
        stack.coordinator.rotate("scheduled")
        retired = stack.coordinator.finish(force=True)
        assert retired == [1]
        # The never-resealed log snapshot is what the retired epoch
        # strands (replicas leave nothing on disk).
        assert stranded_blobs(stack.authority, stack.inner) == [("log", 1)]
        clone = InMemoryStorage()
        clone.save(stack.inner.load())  # still sealed under epoch 1
        report = recover_log(
            SealedLogStorage(clone, stack.log_enclave),
            stack.libseal.ssm.schema_sql,
            stack.libseal.signing_key,
            stack.libseal.signing_key.public_key(),
            stack.cluster,
            log_id=stack.config.log_id,
        )
        assert report.outcome is RecoveryOutcome.RETIRED_EPOCH
        assert not report.detected
        # LibSeal.recover refuses to resume on it.
        libseal, report2 = LibSeal.recover(
            MessagingSSM(),
            SealedLogStorage(clone, stack.log_enclave),
            config=stack.config,
            signing_key=stack.libseal.signing_key,
            rote=stack.cluster,
        )
        assert libseal is None
        assert report2.outcome is RecoveryOutcome.RETIRED_EPOCH

    def test_upgrade_and_replay_converge(self, stack):
        stuck = self._strand(stack)
        stack.coordinator.rotate("scheduled")
        for i in stuck:
            stack.cluster.nodes[i].upgrade("rote-counter-2.0")
        report = stack.coordinator.resume()
        assert report is not None and report.log_resealed
        assert not stack.libseal.degraded.active
        stack.assert_converged(2)
        for i in stuck:
            assert stack.cluster.nodes[i].epoch == 2
            assert stack.cluster.nodes[i].pinned is None

    def test_finish_without_force_waits_for_stragglers(self, stack):
        self._strand(stack)
        stack.coordinator.rotate("scheduled")
        assert stack.coordinator.finish() == []
        assert stack.authority.epoch_state(1) is EpochState.GRACE
        for replica in stack.cluster.nodes:
            if replica.pinned is not None:
                replica.upgrade("rote-counter-2.0")
        assert stack.coordinator.finish() == [1]
        assert stack.authority.epoch_state(1) is EpochState.RETIRED


class TestRetiredEpochReplay:
    def test_retired_group_key_mac_rejected_by_quorum_logic(self, stack):
        old_key = stack.authority.derive_group_key(b"rot", 1)
        replay = CounterAttestation.sign(old_key, "rotation-test", 5, epoch=1)
        # Pin one replica so the coordinator defers retirement: epoch 1
        # sits in its grace window after the rotate.
        stack.cluster.nodes[3].pin()
        stack.coordinator.rotate("suspected compromise")
        assert stack.authority.epoch_state(1) is EpochState.GRACE
        # Grace window: the old lineage still verifies...
        assert replay.verify(stack.cluster._keyring)
        stack.authority.retire(1)
        # ...until retirement, after which it proves nothing.
        assert not replay.verify(stack.cluster._keyring)
        before = stack.cluster.retired_rejections
        reply = CounterReply(
            op_id=1, node_id=0, log_id="rotation-test",
            value=5, attestation=replay, op="retrieve",
        )
        assert stack.cluster._max_valid({0: reply}) == 0
        assert stack.cluster.retired_rejections == before + 1

    def test_replica_restart_in_grace_window_migrates_blob(self, stack):
        victim = stack.cluster.nodes[3]
        victim.crash()
        stack.coordinator.rotate("scheduled")
        victim.restart()
        stack.network.settle()
        # The rejoiner comes back in the new epoch, confirmed by its
        # peers, with their counters; the next write lands there too.
        assert victim.epoch == 2 and victim.confirmed
        committed = stack.cluster._committed["rotation-test"]
        assert victim.counters == {"rotation-test": committed}
        stack.seed_activity(1)
        assert victim.counters == {"rotation-test": committed + 1}
        assert all(att.epoch == 2 for att in victim._state.values())

    def test_replica_restart_after_retirement_rejoins_empty(self, stack):
        victim = stack.cluster.nodes[3]
        victim.crash()
        stack.coordinator.rotate("one")
        stack.coordinator.rotate("two")  # epoch 1 now past the grace window
        assert stack.authority.epoch_state(1) is EpochState.RETIRED
        victim.restart()
        # Nothing is read back from disk: the replica rejoins empty...
        assert victim.counters == {} and not victim.confirmed
        # ...and peer catch-up repopulates the counters once messages drain.
        stack.network.settle()
        assert victim.confirmed
        assert victim.counters.get("rotation-test") == stack.cluster._committed[
            "rotation-test"
        ]


class TestPolicyMigration:
    def test_mrenclave_to_mrsigner_reseal(self):
        authority = SigningAuthority("acme", seed=b"policy-migration")
        v1 = Enclave(EnclaveConfig(code_identity="v1", signer_name="acme"))
        v1.interface.register_ecall("run", lambda fn: fn())
        v2 = Enclave(EnclaveConfig(code_identity="v2", signer_name="acme"))
        v2.interface.register_ecall("run", lambda fn: fn())

        blob = v1.interface.ecall(
            "run",
            lambda: authority.seal(v1, b"secret", policy=KeyPolicy.MRENCLAVE),
        )
        # v2 cannot unseal MRENCLAVE-bound data...
        with pytest.raises(SealingError):
            v2.interface.ecall("run", lambda: authority.unseal(v2, blob))
        # ...so the upgrade path reseals to MRSIGNER under the new epoch.
        authority.rotate("enclave upgrade")
        migrated = v1.interface.ecall(
            "run",
            lambda: authority.reseal(v1, blob, policy=KeyPolicy.MRSIGNER),
        )
        assert migrated.policy is KeyPolicy.MRSIGNER
        assert migrated.epoch == 2
        plain = v2.interface.ecall(
            "run", lambda: authority.unseal(v2, migrated)
        )
        assert plain == b"secret"

    def test_reseal_refuses_retired_source(self):
        authority = SigningAuthority("acme", seed=b"policy-migration-2")
        v1 = Enclave(EnclaveConfig(code_identity="v1", signer_name="acme"))
        v1.interface.register_ecall("run", lambda fn: fn())
        blob = v1.interface.ecall("run", lambda: authority.seal(v1, b"x"))
        authority.rotate("one")
        authority.rotate("two")
        with pytest.raises(RetiredEpochError):
            v1.interface.ecall("run", lambda: authority.reseal(v1, blob))
