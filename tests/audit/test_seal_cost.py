"""What one epoch seal costs: one ECDSA signature, two disk fsyncs.

The write-ahead seal intent is authenticated by an HMAC
(:mod:`repro.audit.wal`), so the signed head is the only signature a
seal makes. Counted with a wrapper around ``EcdsaPrivateKey.sign`` on
every storage class and on every path that seals: a closing group-seal
window, a trim's re-seal, and the re-seal that closes an
``IN_FLIGHT_DISCARDED`` counter gap.

A steady-state disk seal appends two records to the log image and
fsyncs each: the intent record before the increment, the head record
after the signature — no rename, no directory fsync. The first seal of a
log writes the whole image (the tmp file's fsync and the directory's after
the rename), and so does a compaction (a trim), after appending its
intent record: three fsyncs. The bytes a steady seal writes are those of
the tuples it covers, not of the log, so they stay flat as the log grows.

The ROTE increment inside a seal costs the replicas nothing of the kind:
they keep their counters in enclave memory, so accepting a value is no
ecall and no ``AEAD.seal``.
"""

import os

import pytest

from repro import faults
from repro.audit import AuditLog, RoteCluster
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.recovery import RecoveryOutcome, recover_log
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core import LibSeal, LibSealConfig
from repro.crypto.aead import AEAD
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.faults import FaultEvent, FaultPlan, InjectedCrash
from repro.sgx.interface import EnclaveInterface
from repro.sgx.sealing import SigningAuthority
from tests.audit.test_group_sealing import PairSSM, drive

SCHEMA = "CREATE TABLE updates(time INTEGER, note TEXT)"

STORAGES = {
    "disk": lambda tmp: LogStorage(tmp / "log.bin"),
    "memory": lambda tmp: InMemoryStorage(),
    "sealed": lambda tmp: SealedLogStorage(
        LogStorage(tmp / "log.bin"), make_log_enclave(SigningAuthority("seal-cost"))
    ),
}


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"seal-cost-key"))


@pytest.fixture
def signs_per_seal(monkeypatch):
    """ECDSA signatures made inside each ``seal_epoch`` call, in order."""
    signs = [0]
    per_seal = []
    real_sign, real_seal = EcdsaPrivateKey.sign, AuditLog.seal_epoch

    def sign(self, message):
        signs[0] += 1
        return real_sign(self, message)

    def seal_epoch(self):
        before = signs[0]
        try:
            return real_seal(self)
        finally:
            per_seal.append(signs[0] - before)

    monkeypatch.setattr(EcdsaPrivateKey, "sign", sign)
    monkeypatch.setattr(AuditLog, "seal_epoch", seal_epoch)
    return per_seal


def append_and_seal(log, count, start=0):
    for index in range(start, start + count):
        log.append("updates", (index, f"note-{index}"))
        log.seal_epoch()


@pytest.mark.parametrize("make_storage", STORAGES.values(), ids=STORAGES.keys())
def test_each_seal_signs_once(tmp_path, key, signs_per_seal, make_storage):
    log = AuditLog(SCHEMA, key, RoteCluster(f=1), storage=make_storage(tmp_path))
    append_and_seal(log, 4)
    assert signs_per_seal == [1, 1, 1, 1]
    log.verify(key.public_key())


def test_group_seal_window_close_signs_once(signs_per_seal):
    libseal = LibSeal(PairSSM(), config=LibSealConfig(group_seal_pairs=4))
    drive(libseal, 8)
    assert libseal.audit_log.epochs_sealed == 2
    assert signs_per_seal == [1, 1]


def test_trim_reseal_signs_once(key, signs_per_seal):
    log = AuditLog(SCHEMA, key, RoteCluster(f=1), storage=InMemoryStorage())
    append_and_seal(log, 3)
    signs_per_seal.clear()
    assert log.trim(["DELETE FROM updates WHERE time < 2"]) == 2
    assert signs_per_seal == [1]


def test_in_flight_discarded_reseal_signs_once(tmp_path, key, signs_per_seal):
    rote = RoteCluster(f=1)
    path = tmp_path / "log.bin"
    log = AuditLog(SCHEMA, key, rote, storage=LogStorage(path))
    append_and_seal(log, 2)
    with pytest.raises(InjectedCrash):
        with faults.inject(
            FaultPlan([FaultEvent("audit.seal", "crash_after_increment")])
        ):
            append_and_seal(log, 1, start=2)
    signs_per_seal.clear()
    report = recover_log(LogStorage(path), SCHEMA, key, key.public_key(), rote)
    assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
    assert report.resealed
    assert signs_per_seal == [1]


def test_disk_seal_fsyncs(tmp_path, key, monkeypatch):
    fsyncs = [0]
    real_fsync = os.fsync

    def fsync(fd):
        fsyncs[0] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    storage = LogStorage(tmp_path / "log.bin")
    log = AuditLog(SCHEMA, key, RoteCluster(f=1), storage=storage)
    per_seal = []
    for index in range(5):
        before = fsyncs[0]
        append_and_seal(log, 1, start=index)
        per_seal.append(fsyncs[0] - before)
    assert per_seal == [2, 2, 2, 2, 2]
    before = fsyncs[0]
    log.trim(["DELETE FROM updates WHERE time < 2"])
    assert fsyncs[0] - before == 3  # intent append, tmp file, directory
    before = fsyncs[0]
    append_and_seal(log, 1, start=5)
    assert fsyncs[0] - before == 2


def test_steady_seal_bytes_stay_flat_as_the_log_grows(tmp_path, key):
    storage = LogStorage(tmp_path / "log.bin")
    log = AuditLog(SCHEMA, key, RoteCluster(f=1), storage=storage)

    def bytes_of_one_seal(index):
        before = storage.bytes_written
        append_and_seal(log, 1, start=index)
        return storage.bytes_written - before

    append_and_seal(log, 10)
    small = bytes_of_one_seal(10)
    append_and_seal(log, 90, start=11)
    assert storage.size_bytes() > 9 * 10 * small
    assert bytes_of_one_seal(101) <= small + 8  # wider decimal ids, no more


def test_an_image_rewritten_behind_the_handle_is_re_read(tmp_path, key):
    """What the wall harness's negative control does: take the image, let
    the log grow, write the old image back through the file, and recover
    through the *same* storage handle. Nothing about the file is cached:
    the rollback is seen, and once the live image is restored, the next
    append lands after it."""
    rote = RoteCluster(f=1)
    storage = LogStorage(tmp_path / "log.bin")
    log = AuditLog(SCHEMA, key, rote, storage=storage)
    append_and_seal(log, 2)
    stale = storage.load()
    append_and_seal(log, 2, start=2)
    live = storage.load()
    storage.path.write_bytes(stale)
    report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
    assert report.outcome is RecoveryOutcome.ROLLBACK_DETECTED
    storage.path.write_bytes(live)
    report = recover_log(storage, SCHEMA, key, key.public_key(), rote)
    assert report.outcome is RecoveryOutcome.CLEAN_RESUME
    append_and_seal(report.log, 1, start=4)
    assert storage.load().startswith(live)
    again = recover_log(storage, SCHEMA, key, key.public_key(), rote)
    assert again.outcome is RecoveryOutcome.CLEAN_RESUME
    assert again.entries == 5


def test_accepted_increment_costs_replicas_no_ecall_and_no_seal(monkeypatch):
    cluster = RoteCluster(f=1)
    cluster.increment("log")
    calls = {"ecall": 0, "seal": 0}
    real_ecall, real_seal = EnclaveInterface.ecall, AEAD.seal

    def ecall(self, *args, **kwargs):
        calls["ecall"] += 1
        return real_ecall(self, *args, **kwargs)

    def seal(self, *args, **kwargs):
        calls["seal"] += 1
        return real_seal(self, *args, **kwargs)

    monkeypatch.setattr(EnclaveInterface, "ecall", ecall)
    monkeypatch.setattr(AEAD, "seal", seal)
    accepted = [replica.writes_accepted for replica in cluster.nodes]
    assert cluster.increment("log") == 2
    assert [
        replica.writes_accepted - before
        for replica, before in zip(cluster.nodes, accepted)
    ] == [1] * cluster.n
    assert calls == {"ecall": 0, "seal": 0}
