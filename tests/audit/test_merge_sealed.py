"""Tests for the §3.2 log-merging and §6.3 sealed-storage extensions."""

import pytest

from repro.audit import AuditLog, RoteCluster
from repro.audit.merge import check_merged_invariants, merge_logs
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import EnclaveError, IntegrityError, SealingError
from repro.sgx.sealing import SigningAuthority
from repro.ssm import GitSSM


def make_log(seed: bytes, rote=None):
    key = EcdsaPrivateKey.generate(HmacDrbg(seed=seed))
    log = AuditLog(
        GitSSM().schema_sql, key, rote or RoteCluster(f=1),
        log_id=f"log-{seed.hex()}",
    )
    return key, log


class TestLogMerging:
    def test_failover_scenario_merges_and_detects(self):
        """Instance A handles the pushes; after fail-over, instance B
        serves a rolled-back advertisement. Neither partial log alone can
        prove the violation; the merged log can."""
        key_a, log_a = make_log(b"inst-a")
        key_b, log_b = make_log(b"inst-b")
        log_a.append("updates", (1, "r", "master", "c1", "create"))
        log_a.append("updates", (2, "r", "master", "c2", "update"))
        log_a.seal_epoch()
        log_b.append("advertisements", (1, "r", "master", "c1"))  # rollback!
        log_b.seal_epoch()
        ssm = GitSSM()

        # Neither partial alone shows the violation.
        assert log_a.query(ssm.invariants["soundness"]).rows == []
        assert log_b.query(ssm.invariants["soundness"]).rows == []

        merged = merge_logs(
            [log_a, log_b], [key_a.public_key(), key_b.public_key()], ssm
        )
        violations = check_merged_invariants(merged, ssm)
        assert violations["soundness"], "merged log must reveal the rollback"
        assert merged.source_count == 2
        assert merged.tuple_count == 3

    def test_honest_failover_is_clean(self):
        key_a, log_a = make_log(b"h-a")
        key_b, log_b = make_log(b"h-b")
        log_a.append("updates", (1, "r", "master", "c1", "create"))
        log_a.seal_epoch()
        log_b.append("advertisements", (1, "r", "master", "c1"))
        log_b.seal_epoch()
        merged = merge_logs(
            [log_a, log_b], [key_a.public_key(), key_b.public_key()], GitSSM()
        )
        violations = check_merged_invariants(merged, GitSSM())
        assert not any(violations.values())

    def test_tampered_partial_rejected(self):
        key_a, log_a = make_log(b"t-a")
        key_b, log_b = make_log(b"t-b")
        log_a.append("updates", (1, "r", "master", "c1", "create"))
        log_a.seal_epoch()
        log_b.append("advertisements", (1, "r", "master", "c1"))
        log_b.seal_epoch()
        # Instance B's stored row is modified after sealing.
        log_b.db.lookup_table("advertisements").rows[0][3] = "cEVIL"
        with pytest.raises(IntegrityError):
            merge_logs(
                [log_a, log_b], [key_a.public_key(), key_b.public_key()], GitSSM()
            )

    def test_unsealed_partial_rejected(self):
        key_a, log_a = make_log(b"u-a")
        log_a.append("updates", (1, "r", "m", "c", "create"))
        with pytest.raises(IntegrityError):
            merge_logs([log_a], [key_a.public_key()], GitSSM())

    def test_key_count_mismatch_rejected(self):
        key_a, log_a = make_log(b"k-a")
        log_a.seal_epoch()
        with pytest.raises(IntegrityError):
            merge_logs([log_a], [], GitSSM())

    def test_empty_merge_rejected(self):
        with pytest.raises(IntegrityError):
            merge_logs([], [], GitSSM())

    def test_per_instance_order_preserved(self):
        key_a, log_a = make_log(b"o-a")
        key_b, log_b = make_log(b"o-b")
        log_a.append("updates", (1, "r", "m", "c1", "create"))
        log_a.append("updates", (2, "r", "m", "c2", "update"))
        log_a.seal_epoch()
        log_b.append("updates", (1, "r", "m", "c3", "update"))
        log_b.seal_epoch()
        merged = merge_logs(
            [log_a, log_b], [key_a.public_key(), key_b.public_key()], GitSSM()
        )
        rows = merged.query("SELECT time, cid FROM updates ORDER BY time").rows
        assert [r[1] for r in rows] == ["c1", "c2", "c3"]
        # Merged timestamps are strictly increasing across instances.
        times = [r[0] for r in rows]
        assert times == sorted(times) and len(set(times)) == 3


class TestSealedStorage:
    @pytest.fixture
    def authority(self):
        return SigningAuthority("seal-corp", seed=b"seal-auth")

    def test_log_roundtrips_through_sealed_storage(self, authority, tmp_path):
        enclave = make_log_enclave(authority)
        storage = SealedLogStorage(LogStorage(tmp_path / "log.sealed"), enclave)
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"sealed-log"))
        rote = RoteCluster(f=1)
        log = AuditLog(GitSSM().schema_sql, key, rote, storage=storage)
        log.append("updates", (1, "r", "m", "c1", "create"))
        log.seal_epoch()
        loaded = AuditLog.load(
            storage.load(), GitSSM().schema_sql, key, key.public_key(), rote,
            log.log_id,
        )
        assert loaded.row_count("updates") == 1

    def test_provider_sees_only_ciphertext(self, authority, tmp_path):
        enclave = make_log_enclave(authority)
        inner = LogStorage(tmp_path / "log.sealed")
        storage = SealedLogStorage(inner, enclave)
        storage.save(b'{"payloads": [["updates", [1, "repo", "master"]]]}')
        on_disk = inner.load()
        assert b"updates" not in on_disk
        assert b"master" not in on_disk

    def test_tampered_ciphertext_rejected(self, authority, tmp_path):
        enclave = make_log_enclave(authority)
        inner = LogStorage(tmp_path / "log.sealed")
        storage = SealedLogStorage(inner, enclave)
        storage.save(b"secret log data")
        raw = bytearray(inner.load())
        raw[-1] ^= 0x01
        inner.save(bytes(raw))
        with pytest.raises(SealingError):
            storage.load()

    def test_same_authority_other_enclave_can_unseal(self, authority, tmp_path):
        producer = make_log_enclave(authority, code_version="v1")
        consumer = make_log_enclave(authority, code_version="v2-upgraded")
        inner = LogStorage(tmp_path / "log.sealed")
        SealedLogStorage(inner, producer).save(b"migrating log")
        migrated = SealedLogStorage(inner, consumer)
        assert migrated.load() == b"migrating log"

    def test_foreign_authority_cannot_unseal(self, authority, tmp_path):
        foreign = SigningAuthority("other-corp", seed=b"other")
        producer = make_log_enclave(authority)
        thief = make_log_enclave(foreign)
        inner = LogStorage(tmp_path / "log.sealed")
        SealedLogStorage(inner, producer).save(b"confidential")
        with pytest.raises(SealingError):
            SealedLogStorage(inner, thief).load()

    def test_outside_code_cannot_invoke_seal_directly(self, authority):
        enclave = make_log_enclave(authority)
        # The interface is sealed: no new ecalls can be registered, and
        # sealing helpers require enclave context.
        with pytest.raises(EnclaveError):
            enclave.interface.register_ecall("steal", lambda: None)
        with pytest.raises(EnclaveError):
            authority.seal(enclave, b"x")

    def test_accounting_passthrough(self, authority):
        enclave = make_log_enclave(authority)
        storage = SealedLogStorage(InMemoryStorage(), enclave)
        storage.save(b"blob")
        assert storage.flush_count == 1
        assert storage.bytes_written > 0
        assert storage.exists()
