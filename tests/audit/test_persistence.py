"""Crash-point matrix for the untrusted storage layer.

The recovery protocol leans on one invariant: **after any crash, the
main file holds exactly one previously saved snapshot** — the old blob
or the new one, never a torn mixture. This suite drives every injected
fault kind the ``storage.save`` / ``storage.load`` hook points support,
at every crash site around the write → fsync → rename → fsync sequence,
and checks the invariant plus the orphan-``.tmp`` cleanup that a
restart performs. A seal's closing append is the same fault site; what it
can leave behind is at most one torn record at the end of the image
(every crash state of it: ``tests/audit/test_crash_states.py``).
"""

import pytest

from repro.audit.log import IMAGE_MAGIC, INTENT_RECORD
from repro.audit.persistence import (
    SIDECAR_KINDS,
    InMemoryStorage,
    LogStorage,
    split_frames,
)
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.audit import persistence
from repro.errors import StorageError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash
from repro.sgx.sealing import SigningAuthority
from tests.audit.crash_states import LOG, DiskModel, record_run


@pytest.fixture
def store(tmp_path):
    return LogStorage(tmp_path / "audit.log")


def crash_plan(site, kind, at=1, **params):
    return FaultPlan([FaultEvent(site, kind, at=at, params=params)])


OLD = b"sealed-snapshot-v1"
NEW = b"sealed-snapshot-v2-longer-than-v1"


class TestSaveCrashMatrix:
    """One test per crash site in the atomic-replace sequence."""

    def test_crash_before_replace_keeps_old_blob(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_before_replace")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The tmp file was fully written but never renamed: the main
        # file still holds the *old* snapshot, untouched.
        assert store.load() == OLD
        assert store._tmp_path.exists()  # the orphan a restart cleans

    def test_crash_after_replace_keeps_new_blob(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_after_replace")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The rename completed and was flushed: the new snapshot is
        # durable even though save() never returned.
        assert store.load() == NEW
        assert not store._tmp_path.exists()

    def test_torn_write_never_reaches_the_main_file(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "torn_write")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The torn prefix lives only in the tmp file; the main file is
        # byte-identical to the last completed save.
        assert store.load() == OLD
        torn = store._tmp_path.read_bytes()
        assert torn != NEW and len(torn) < len(NEW)

    def test_corrupt_then_crash_is_detectable_not_silent(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "corrupt_then_crash")):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        # The corrupted blob *did* replace the old one — storage is
        # adversarial and may hold anything; what matters is that it is
        # a complete replace (not torn) for the hash chain to reject.
        on_disk = store.load()
        assert on_disk != NEW and on_disk != OLD
        assert len(on_disk) == len(NEW)

    def test_io_error_surfaces_as_storage_error(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "io_error")):
            with pytest.raises(StorageError, match="injected I/O error"):
                store.save(NEW)
        assert store.load() == OLD

    def test_real_os_error_cleans_tmp_and_raises(self, tmp_path):
        target = tmp_path / "missing-dir" / "audit.log"
        store = LogStorage.__new__(LogStorage)
        store.path = target
        store.flush_count = 0
        store.bytes_written = 0
        store.orphans_cleaned = []
        with pytest.raises(StorageError, match="cannot write"):
            store.save(NEW)
        assert not store._tmp_path.exists()

    @pytest.mark.parametrize(
        "kind", ["crash_before_replace", "crash_after_replace", "torn_write"]
    )
    def test_crash_then_resave_converges(self, store, kind):
        """Whatever the crash site, a clean retry wins."""
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", kind)):
            with pytest.raises(InjectedCrash):
                store.save(NEW)
        store.save(NEW)
        assert store.load() == NEW
        assert not store._tmp_path.exists()


class TestAppendCrashMatrix:
    """The seal-closing append (``seals=True``) under each fault kind."""

    RECORD = b"head-record-bytes"

    @pytest.mark.parametrize(
        "kind, lands",
        [
            ("torn_write", "prefix"),
            ("crash_before_replace", "all"),  # written, never fsynced
            ("crash_after_replace", "all"),
            ("corrupt_then_crash", "corrupted"),
        ],
    )
    def test_crash_leaves_at_most_one_record(self, store, kind, lands):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", kind)):
            with pytest.raises(InjectedCrash):
                store.append(self.RECORD, seals=True)
        on_disk = store.load()
        assert on_disk.startswith(OLD)
        tail = on_disk[len(OLD) :]
        if lands == "prefix":
            assert 0 < len(tail) < len(self.RECORD) and self.RECORD.startswith(tail)
        elif lands == "all":
            assert tail == self.RECORD
        else:
            assert len(tail) == len(self.RECORD) and tail != self.RECORD

    def test_io_error_writes_nothing(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "io_error")):
            with pytest.raises(StorageError, match="injected I/O error"):
                store.append(self.RECORD, seals=True)
        assert store.load() == OLD

    def test_write_ahead_append_is_no_fault_site(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.save", "io_error")) as injector:
            store.append(self.RECORD)
        assert not injector.fired
        assert store.load() == OLD + self.RECORD

    def test_failed_append_is_truncated_back(self, store, monkeypatch):
        store.save(OLD)

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(persistence.fs, "fsync", failing_fsync)
        with pytest.raises(StorageError, match="cannot append"):
            store.append(self.RECORD)
        monkeypatch.undo()
        assert store.load() == OLD


class TestOrphanCleanup:
    def test_restart_removes_orphan_tmp(self, tmp_path):
        path = tmp_path / "audit.log"
        first = LogStorage(path)
        first.save(OLD)
        with _faults.inject(crash_plan("storage.save", "crash_before_replace")):
            with pytest.raises(InjectedCrash):
                first.save(NEW)
        assert first._tmp_path.exists()
        # The restart (a fresh LogStorage over the same path) removes
        # the orphan and reports it as crash evidence.
        second = LogStorage(path)
        assert second.orphans_cleaned == [second._tmp_path]
        assert not second._tmp_path.exists()
        assert second.load() == OLD

    def test_clean_restart_reports_no_orphans(self, tmp_path):
        path = tmp_path / "audit.log"
        LogStorage(path).save(OLD)
        assert LogStorage(path).orphans_cleaned == []

    def test_orphan_cleanup_ignores_sidecars(self, tmp_path):
        path = tmp_path / "audit.log"
        first = LogStorage(path)
        first.save(OLD)
        first.save_intent(b"rotation", "rotation")
        first.save_intent(b"membership", "membership")
        second = LogStorage(path)
        assert second.orphans_cleaned == []
        assert second.load_intent("rotation") == b"rotation"
        assert second.load_intent("membership") == b"membership"


class TestLoadFaults:
    def test_stale_read_serves_an_earlier_snapshot(self, store):
        with _faults.inject(crash_plan("storage.load", "stale_read", back=1)) as inj:
            store.save(OLD)
            store.save(NEW)
            assert store.load() == OLD  # rollback, served deterministically
            assert inj.fired and inj.fired[0].effect == "stale"
        assert store.load() == NEW  # plan gone, truth restored

    def test_stale_read_with_no_history_is_a_noop(self, store):
        store.save(OLD)  # saved before the plan: no recorded history
        with _faults.inject(crash_plan("storage.load", "stale_read")) as inj:
            assert store.load() == OLD
            assert inj.fired and inj.fired[0].effect == "noop"

    def test_corrupt_read_flips_bytes_deterministically(self, store):
        with _faults.inject(crash_plan("storage.load", "corrupt_read", at=1)):
            store.save(NEW)
            first = store.load()
        with _faults.inject(crash_plan("storage.load", "corrupt_read", at=1)):
            second = store.load()
        assert first != NEW
        assert first == second  # same seed, same corruption

    def test_io_error_on_load(self, store):
        store.save(OLD)
        with _faults.inject(crash_plan("storage.load", "io_error")):
            with pytest.raises(StorageError, match="injected I/O error"):
                store.load()

    def test_missing_file_is_a_typed_error(self, store):
        with pytest.raises(StorageError, match="no snapshot"):
            store.load()


class SidecarContract:
    """The write-ahead sidecar contract, one kind per coordinator
    (rotation, membership), that every storage class honours.
    Subclasses supply the ``store`` fixture and :meth:`reopen`."""

    def reopen(self, store):
        """A second handle over the same stored bytes (a restart)."""
        raise NotImplementedError

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_sidecar_roundtrip_and_clear(self, store, kind):
        assert store.load_intent(kind) is None
        store.save_intent(b"wal-entry", kind)
        assert store.load_intent(kind) == b"wal-entry"
        store.save_intent(b"wal-entry-2", kind)  # overwritten in place
        assert store.load_intent(kind) == b"wal-entry-2"
        store.clear_intent(kind)
        assert store.load_intent(kind) is None
        store.clear_intent(kind)  # idempotent

    def test_sidecars_are_independent_files(self, store):
        for kind in SIDECAR_KINDS:
            store.save_intent(kind.encode(), kind)
        store.clear_intent("rotation")
        assert {kind: store.load_intent(kind) for kind in SIDECAR_KINDS} == {
            "rotation": None,
            "membership": b"membership",
        }

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_sidecar_survives_reopen(self, store, kind):
        # It is a durable write-ahead marker: a restart must find it.
        store.save_intent(b"wal-entry", kind)
        assert self.reopen(store).load_intent(kind) == b"wal-entry"
        self.reopen(store).clear_intent(kind)
        assert store.load_intent(kind) is None

    def test_unknown_kind_is_rejected(self, store):
        with pytest.raises(ValueError, match="unknown sidecar kind"):
            store.save_intent(b"x", "tmp")
        with pytest.raises(ValueError, match="unknown sidecar kind"):
            store.load_intent("../escape")


class TestSidecars(SidecarContract):
    """File-backed: one ``<log>.<kind>`` file per sidecar."""

    def reopen(self, store):
        return LogStorage(store.path)

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_sidecar_file_names(self, store, kind):
        # The on-disk names are what a crashed deployment resumes from.
        store.save_intent(b"wal-entry", kind)
        assert (store.path.parent / f"audit.log.{kind}").read_bytes() == b"wal-entry"


class TestInMemorySidecars(SidecarContract):
    @pytest.fixture
    def store(self):
        return InMemoryStorage()

    def reopen(self, store):
        return store  # lives exactly as long as the process


class TestSealedSidecars(SidecarContract):
    @pytest.fixture
    def store(self, tmp_path):
        enclave = make_log_enclave(SigningAuthority("sidecar-test"))
        return SealedLogStorage(LogStorage(tmp_path / "audit.log"), enclave)

    def reopen(self, store):
        return SealedLogStorage(LogStorage(store.path), store.enclave)

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_sidecar_passes_through_unencrypted(self, store, kind):
        # Intents are authenticated public artifacts; only the image is sealed.
        store.save_intent(b"wal-entry", kind)
        assert store.inner.load_intent(kind) == b"wal-entry"
        store.save(OLD)
        assert store.inner.load() != OLD


class TestSidecarEntryDurability:
    """Under the power-loss model (a new or replaced directory entry is
    durable only once its directory is fsynced; an unsynced write may be
    lost), the seal's intent record must be durable — the image's entry
    *and* the record — before the ROTE counter moves, or a benign crash
    right after the increment reads as a rollback. Checked on every call
    the storage seam records (``tests/audit/crash_states.py``)."""

    def test_intent_entry_is_durable_before_every_increment(self, tmp_path):
        ops = record_run(tmp_path)
        model = DiskModel()
        increments = 0
        for op in ops:
            if op[0] == "increment":
                increments += 1
                # The first seal has no image to append to: it writes
                # the image whole, and a crash before that is NO_SNAPSHOT.
                if increments > 1:
                    image = model.settled(LOG)
                    assert image is not None, (
                        f"increment {increments}: image entry or bytes not durable"
                    )
                    last = split_frames(image, len(IMAGE_MAGIC))[0][-1]
                    assert last[:1] == INTENT_RECORD, (
                        f"increment {increments}: no durable intent record"
                    )
            model.apply(op)
        assert increments >= 6


class TestInMemoryParity:
    """LibSEAL-mem must honour the same hook points and interface."""

    def test_load_faults_apply(self):
        store = InMemoryStorage()
        store.save(OLD)
        with _faults.inject(crash_plan("storage.load", "corrupt_read")):
            assert store.load() != OLD
        assert store.load() == OLD
