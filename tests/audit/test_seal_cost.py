"""What one epoch seal costs: a signature only at the cadence, two fsyncs.

The record MAC authenticates a head record to the enclave that reads it
back, so a seal signs its head only when the fresh counter value is a
multiple of ``SIGN_EVERY``; a head is otherwise signed when it leaves the
enclave (``AuditLog.export_head``, read by ``verify``), once. The
write-ahead seal intent is authenticated by an HMAC
(:mod:`repro.audit.wal`), so the head's is the only signature there is.
Counted with a wrapper around ``EcdsaPrivateKey.sign`` on every storage
class and on every path that seals — a closing group-seal window, a
trim's re-seal, and the re-seal that closes an ``IN_FLIGHT_DISCARDED``
counter gap — each on both sides of a cadence value: one signature when
``counter_value % SIGN_EVERY == 0``, none otherwise. An export signs an
unsigned head once and a signed one never, and a restart followed by
``verify_log`` verifies one signature.

A steady-state disk seal appends two records to the log image and
fsyncs each: the intent record before the increment, the head record
after it — no rename, no directory fsync. The first seal of a
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
from repro.audit.log import SIGN_EVERY
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.recovery import RecoveryOutcome, recover_log
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core import LibSeal, LibSealConfig
from repro.crypto.aead import AEAD
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
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
def calls(monkeypatch):
    """Every ``EcdsaPrivateKey.sign`` and ``EcdsaPublicKey.verify`` call."""
    counts = {"sign": 0, "verify": 0}
    real_sign, real_verify = EcdsaPrivateKey.sign, EcdsaPublicKey.verify

    def sign(self, message):
        counts["sign"] += 1
        return real_sign(self, message)

    def verify(self, message, signature):
        counts["verify"] += 1
        return real_verify(self, message, signature)

    monkeypatch.setattr(EcdsaPrivateKey, "sign", sign)
    monkeypatch.setattr(EcdsaPublicKey, "verify", verify)
    return counts


@pytest.fixture
def signs_per_seal(monkeypatch, calls):
    """``(counter value, ECDSA signatures made)`` of each ``seal_epoch``."""
    per_seal = []
    real_seal = AuditLog.seal_epoch

    def seal_epoch(self):
        before = calls["sign"]
        head = real_seal(self)
        per_seal.append((head.counter_value, calls["sign"] - before))
        return head

    monkeypatch.setattr(AuditLog, "seal_epoch", seal_epoch)
    return per_seal


def signed_at_cadence(per_seal):
    """Each seal signed once at a cadence value and never otherwise."""
    return all(signs == (counter % SIGN_EVERY == 0) for counter, signs in per_seal)


def advanced(count, log_id="libseal-log"):
    """A ROTE group whose counter for ``log_id`` already reads ``count``."""
    rote = RoteCluster(f=1)
    for _ in range(count):
        rote.increment(log_id)
    return rote


def append_and_seal(log, count, start=0):
    for index in range(start, start + count):
        log.append("updates", (index, f"note-{index}"))
        log.seal_epoch()


@pytest.mark.parametrize("make_storage", STORAGES.values(), ids=STORAGES.keys())
def test_a_seal_signs_only_at_the_cadence(tmp_path, key, signs_per_seal, make_storage):
    log = AuditLog(SCHEMA, key, RoteCluster(f=1), storage=make_storage(tmp_path))
    append_and_seal(log, SIGN_EVERY + 2)
    assert [signs for _, signs in signs_per_seal] == [0] * (SIGN_EVERY - 1) + [1, 0, 0]
    assert signed_at_cadence(signs_per_seal)
    log.verify(key.public_key())


@pytest.mark.parametrize("counter_from", [0, SIGN_EVERY - 2])
def test_group_seal_window_close_signs_at_the_cadence(signs_per_seal, counter_from):
    libseal = LibSeal(
        PairSSM(), config=LibSealConfig(group_seal_pairs=4), rote=advanced(counter_from)
    )
    drive(libseal, 8)
    assert libseal.audit_log.epochs_sealed == 2
    assert signs_per_seal == [
        (counter_from + 1, counter_from + 1 == SIGN_EVERY),
        (counter_from + 2, counter_from + 2 == SIGN_EVERY),
    ]
    assert signed_at_cadence(signs_per_seal)


@pytest.mark.parametrize("counter_from", [0, SIGN_EVERY - 4])
def test_trim_reseal_signs_at_the_cadence(key, signs_per_seal, counter_from):
    log = AuditLog(SCHEMA, key, advanced(counter_from), storage=InMemoryStorage())
    append_and_seal(log, 3)
    signs_per_seal.clear()
    assert log.trim(["DELETE FROM updates WHERE time < 2"]) == 2
    assert signs_per_seal == [(counter_from + 4, counter_from + 4 == SIGN_EVERY)]


@pytest.mark.parametrize("counter_from", [0, SIGN_EVERY - 3])
def test_in_flight_discarded_reseal_signs_at_the_cadence(
    tmp_path, key, signs_per_seal, counter_from
):
    rote = advanced(counter_from)
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
    assert signs_per_seal == [(counter_from + 4, counter_from + 4 == SIGN_EVERY)]


@pytest.mark.parametrize("counter_from", [0, SIGN_EVERY - 1])
def test_an_export_signs_a_head_once(key, calls, counter_from):
    log = AuditLog(SCHEMA, key, advanced(counter_from), storage=InMemoryStorage())
    append_and_seal(log, 1)
    stored = log.storage.load()
    before = calls["sign"]
    first = log.export_head()
    assert calls["sign"] - before == (counter_from + 1 != SIGN_EVERY)
    assert log.export_head() is first
    log.verify(key.public_key())
    log.verify(key.public_key())
    assert calls["sign"] - before == (counter_from + 1 != SIGN_EVERY)
    # No counter increment and no storage write: the image is unchanged.
    assert log.rote.retrieve("libseal-log") == counter_from + 1
    assert log.storage.load() == stored
    assert log.serialize() == stored


@pytest.mark.parametrize("counter_from", [0, SIGN_EVERY - 3])
def test_recover_then_verify_log_verifies_once(calls, counter_from):
    storage = InMemoryStorage()
    libseal = LibSeal(PairSSM(), storage=storage, rote=advanced(counter_from))
    drive(libseal, 3)
    assert libseal.audit_log.signed_head.counter_value == counter_from + 3
    last_signed = (counter_from + 3) % SIGN_EVERY == 0
    before = dict(calls)
    recovered, report = LibSeal.recover(
        PairSSM(), storage, signing_key=libseal.signing_key, rote=libseal.rote
    )
    assert report.outcome is RecoveryOutcome.CLEAN_RESUME
    assert calls["verify"] - before["verify"] == last_signed
    recovered.verify_log()
    recovered.verify_log()
    assert calls["verify"] - before["verify"] == 1
    assert calls["sign"] - before["sign"] == (not last_signed)


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
