"""End-to-end tests for :class:`AuditLog`: append, seal, trim, tamper, roll back."""

import pytest

from repro.audit import AuditLog, RoteCluster
from repro.audit.log import SIGN_EVERY
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError, RollbackError
from tests.audit.records import decode, encode

SCHEMA = """
CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT);
"""

TRIM = [
    "DELETE FROM advertisements",
    "DELETE FROM updates WHERE time NOT IN "
    "(SELECT MAX(time) FROM updates GROUP BY repo, branch)",
]


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"log-key"))


@pytest.fixture
def rote():
    return RoteCluster(f=1)


@pytest.fixture
def log(key, rote):
    return AuditLog(SCHEMA, key, rote, storage=InMemoryStorage())


def fill(log, n=5):
    for i in range(1, n + 1):
        log.append("updates", (i, "repo", "master", f"c{i}", "update"))
    log.append("advertisements", (n + 1, "repo", "master", f"c{n}"))
    log.seal_epoch()


def load(blob, key, rote):
    return AuditLog.load(blob, SCHEMA, key, key.public_key(), rote, "libseal-log")


def doc_of(log, key):
    """The stored image's document view (tests/audit/records.py)."""
    return decode(log.storage.load(), key, schema=SCHEMA)


class TestAppendQuery:
    def test_appends_are_queryable(self, log):
        fill(log)
        assert log.query("SELECT COUNT(*) FROM updates").scalar() == 5
        assert log.row_count("advertisements") == 1

    def test_invariant_query_runs_on_log(self, log):
        fill(log)
        rows = log.query(
            "SELECT * FROM advertisements a WHERE cid != ("
            "SELECT u.cid FROM updates u WHERE u.repo = a.repo AND "
            "u.branch = a.branch AND u.time < a.time "
            "ORDER BY u.time DESC LIMIT 1)"
        ).rows
        assert rows == []

    def test_append_extends_chain(self, log):
        fill(log)
        assert len(log.chain) == 6

    def test_size_accounting(self, log):
        before = log.size_bytes()
        fill(log)
        assert log.size_bytes() > before


class TestSealVerify:
    def test_sealed_log_verifies(self, key, log):
        fill(log)
        log.verify(key.public_key())

    def test_unsealed_log_fails_verification(self, key, rote):
        log = AuditLog(SCHEMA, key, rote)
        log.append("updates", (1, "r", "b", "c", "update"))
        with pytest.raises(IntegrityError):
            log.verify(key.public_key())

    def test_storage_flushed_per_epoch(self, log):
        fill(log)
        assert log.storage.flush_count == 1
        log.seal_epoch()
        assert log.storage.flush_count == 2


class TestLoadAndTamper:
    def test_roundtrip_load(self, key, rote, log):
        fill(log)
        blob = log.storage.load()
        loaded = load(blob, key, rote)
        assert loaded.query("SELECT COUNT(*) FROM updates").scalar() == 5

    def test_modified_row_detected(self, key, rote, log):
        fill(log)
        doc = doc_of(log, key)
        doc["payloads"][0][1][3] = "cFORGED"  # change a commit id
        with pytest.raises(IntegrityError):
            load(encode(doc, key), key, rote)

    def test_deleted_row_detected(self, key, rote, log):
        fill(log)
        doc = doc_of(log, key)
        del doc["payloads"][2]
        with pytest.raises(IntegrityError):
            load(encode(doc, key), key, rote)

    def test_injected_row_detected(self, key, rote, log):
        fill(log)
        doc = doc_of(log, key)
        doc["payloads"].append(["updates", [99, "r", "b", "c99", "update"]])
        with pytest.raises(IntegrityError):
            load(encode(doc, key), key, rote)

    def test_forged_head_detected(self, key, rote, log):
        for _ in range(SIGN_EVERY - 1):
            rote.increment("libseal-log")
        fill(log)  # a cadence seal: the head record stores its signature
        doc = doc_of(log, key)
        doc["head"]["counter"] += 1  # a forged, re-MAC'd head
        with pytest.raises(IntegrityError):
            load(encode(doc, key), key, rote)

    def test_garbage_blob_detected(self, key, rote):
        with pytest.raises(IntegrityError):
            load(b"not json at all", key, rote)

    def test_unforged_edit_fails_the_record_mac(self, key, rote, log):
        fill(log)
        blob = log.storage.load().replace(b"c3", b"cX")
        with pytest.raises(IntegrityError, match="record MAC invalid"):
            load(blob, key, rote)

    def test_missing_head_detected(self, key, rote, log):
        fill(log)
        doc = doc_of(log, key)
        doc["head"] = None
        with pytest.raises(IntegrityError):
            load(encode(doc, key), key, rote)

    def test_rollback_detected(self, key, rote, log):
        # Seal epoch 1, keep the old snapshot, then advance to epoch 2.
        fill(log)
        stale_blob = log.storage.load()
        log.append("updates", (10, "repo", "master", "c10", "update"))
        log.seal_epoch()
        # Provider presents the stale snapshot: counter 1 < quorum value 2.
        with pytest.raises(RollbackError):
            load(stale_blob, key, rote)

    def test_current_snapshot_still_loads_after_rollback_attempt(self, key, rote, log):
        fill(log)
        log.append("updates", (10, "repo", "master", "c10", "update"))
        log.seal_epoch()
        loaded = load(log.storage.load(), key, rote)
        assert loaded.query("SELECT COUNT(*) FROM updates").scalar() == 6


class TestTrimming:
    def test_trim_removes_and_rechains(self, key, log):
        fill(log)  # 5 updates + 1 advertisement
        removed = log.trim(TRIM)
        # All ads removed; 4 of 5 updates removed (keep latest).
        assert removed == 5
        assert log.row_count("updates") == 1
        assert log.row_count("advertisements") == 0
        assert len(log.chain) == 1
        log.verify(key.public_key())

    def test_trim_preserves_latest_update_per_branch(self, key, log):
        log.append("updates", (1, "r", "main", "c1", "update"))
        log.append("updates", (2, "r", "main", "c2", "update"))
        log.append("updates", (3, "r", "dev", "d1", "update"))
        log.seal_epoch()
        log.trim(TRIM)
        rows = log.query("SELECT branch, cid FROM updates ORDER BY branch").rows
        assert rows == [("dev", "d1"), ("main", "c2")]

    def test_trimmed_log_roundtrips(self, key, rote, log):
        fill(log)
        log.trim(TRIM)
        loaded = load(log.storage.load(), key, rote)
        assert loaded.row_count("updates") == 1

    def test_appends_after_trim_keep_verifying(self, key, log):
        fill(log)
        log.trim(TRIM)
        log.append("advertisements", (20, "repo", "master", "c5"))
        log.seal_epoch()
        log.verify(key.public_key())

    def test_trim_handles_duplicate_rows(self, key, log):
        # Two identical tuples; trimming one must keep chain consistent.
        log.append("advertisements", (1, "r", "b", "c"))
        log.append("advertisements", (1, "r", "b", "c"))
        log.seal_epoch()
        log.trim(["DELETE FROM advertisements WHERE time = 1"])
        assert len(log.chain) == 0
        log.verify(key.public_key())


class TestFileStorage:
    def test_file_roundtrip(self, key, rote, tmp_path):
        storage = LogStorage(tmp_path / "audit.log")
        log = AuditLog(SCHEMA, key, rote, storage=storage)
        fill(log)
        assert storage.exists()
        assert storage.size_bytes() > 0
        loaded = load(storage.load(), key, rote)
        assert loaded.row_count("updates") == 5

    def test_on_disk_tampering_detected(self, key, rote, tmp_path):
        storage = LogStorage(tmp_path / "audit.log")
        log = AuditLog(SCHEMA, key, rote, storage=storage)
        fill(log)
        raw = storage.load().replace(b"master", b"hacked")
        (tmp_path / "audit.log").write_bytes(raw)
        with pytest.raises(IntegrityError):
            load(storage.load(), key, rote)
