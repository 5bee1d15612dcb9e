"""Watermark lifecycle: monotonic row ids, persistence, trim invalidation.

The incremental checker's safety rests on the audit log's watermark
contract: row ids are strictly increasing and survive seal/serialize/
load/recover; ``rows_since`` replays exactly the appends past a
watermark; a trim invalidates every outstanding watermark (generation
bump) so a checker can never silently skip rows it has not seen.
"""

import pytest

from repro.audit import AuditLog, RoteCluster
from repro.audit.persistence import InMemoryStorage
from repro.core import LibSeal, LibSealConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError
from repro.ssm import DropboxSSM, GitSSM
from repro.workloads import DropboxOpsWorkload, GitReplayWorkload
from tests.audit.records import decode, encode

SCHEMA = """
CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT);
"""


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"wm-key"))


@pytest.fixture
def rote():
    return RoteCluster(f=1)


def make_log(key, rote, storage=None):
    return AuditLog(SCHEMA, key, rote, storage=storage or InMemoryStorage())


def append_n(log, n, start=0, table="updates"):
    for i in range(start, start + n):
        if table == "updates":
            log.append(table, (i, "r", "main", f"c{i}", "update"))
        else:
            log.append(table, (i, "r", "main", f"c{i}"))


class TestWatermarkBasics:
    def test_row_ids_monotonic_and_rows_since(self, key, rote):
        log = make_log(key, rote)
        append_n(log, 5)
        wm = log.watermark()
        assert wm.row_id == 4
        append_n(log, 3, start=5)
        since = log.rows_since("updates", wm)
        assert [row_id for row_id, _ in since] == [5, 6, 7]
        assert [values[0] for _, values in since] == [5, 6, 7]
        # Other tables: nothing new.
        assert log.rows_since("advertisements", wm) == []

    def test_min_time_since(self, key, rote):
        log = make_log(key, rote)
        append_n(log, 4)
        wm = log.watermark()
        assert log.min_time_since(wm) is None  # no appends yet
        append_n(log, 2, start=4)
        assert log.min_time_since(wm) == 4

    def test_time_monotone_flag_drops_on_regression(self, key, rote):
        log = make_log(key, rote)
        append_n(log, 4)
        assert log.time_monotone
        log.append("updates", (0, "r", "main", "late", "update"))
        assert not log.time_monotone

    def test_trim_invalidates_watermarks(self, key, rote):
        log = make_log(key, rote)
        append_n(log, 6)
        wm = log.watermark()
        log.trim(
            [
                "DELETE FROM updates WHERE time NOT IN "
                "(SELECT MAX(time) FROM updates GROUP BY repo, branch)"
            ]
        )
        assert log.trim_generation == wm.generation + 1
        assert log.rows_since("updates", wm) is None
        assert log.min_time_since(wm) is None
        fresh = log.watermark()
        assert log.rows_since("updates", fresh) == []


class TestWatermarkPersistence:
    def test_survives_seal_serialize_load(self, key, rote):
        storage = InMemoryStorage()
        log = make_log(key, rote, storage)
        append_n(log, 5)
        wm = log.watermark()
        append_n(log, 2, start=5)
        log.seal_epoch()
        blob = log.serialize()
        loaded = AuditLog.load(
            blob, SCHEMA, key, key.public_key(), rote, log.log_id, storage=storage
        )
        assert loaded.next_row_id == log.next_row_id
        assert loaded.trim_generation == log.trim_generation
        assert loaded.time_monotone
        since = loaded.rows_since("updates", wm)
        assert [row_id for row_id, _ in since] == [5, 6]

    def test_stored_clock_cannot_rewind_below_the_chained_times(self, key, rote):
        storage = InMemoryStorage()
        log = make_log(key, rote, storage)
        append_n(log, 6)
        log.trim(["DELETE FROM updates WHERE time > 3"])
        doc = decode(log.serialize(), key, log.log_id, SCHEMA)
        # A trim removed the latest rows: the stored clock stays ahead.
        assert doc["watermark_state"]["latest_time"] == 5
        loaded = AuditLog.load(
            encode(doc, key), SCHEMA, key, key.public_key(), rote, log.log_id
        )
        assert loaded.latest_time == 5
        # The field is outside the signature; lowering it (in a record
        # re-MAC'd with the key) must not rewind the clock below what the
        # chained tuples prove.
        doc["watermark_state"]["latest_time"] = 0
        loaded = AuditLog.load(
            encode(doc, key), SCHEMA, key, key.public_key(), rote, log.log_id
        )
        assert loaded.latest_time == 3

    def test_load_rejects_inconsistent_watermark_state(self, key, rote):
        storage = InMemoryStorage()
        log = make_log(key, rote, storage)
        append_n(log, 3)
        log.seal_epoch()
        doc = decode(log.serialize(), key, log.log_id, SCHEMA)
        doc["watermark_state"]["payload_ids"] = [0, 0, 1]  # not increasing
        blob = encode(doc, key)
        with pytest.raises(IntegrityError):
            AuditLog.load(
                blob, SCHEMA, key, key.public_key(), rote, log.log_id, storage=storage
            )


class TestCheckerWatermarkLifecycle:
    def run_workload(self, libseal, n=30):
        workload = GitReplayWorkload(libseal, seed=3)
        workload.run(n)
        return workload

    def test_recover_starts_with_full_scan(self):
        storage = InMemoryStorage()
        config = LibSealConfig(flush_each_pair=True, log_id="wm-recover")
        libseal = LibSeal(GitSSM(), config=config, storage=storage)
        self.run_workload(libseal)
        libseal.check_invariants()
        recovered, report = LibSeal.recover(
            GitSSM(),
            config=config,
            storage=storage,
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert recovered is not None
        outcome = recovered.check_invariants()
        # A restarted enclave never trusts persisted checker state.
        assert all(s.mode == "full" for s in outcome.invariant_stats)
        follow_up = recovered.check_invariants()
        assert all(s.mode in ("delta", "skip") for s in follow_up.invariant_stats)

    @pytest.mark.parametrize(
        "ssm_cls, workload_cls, seed",
        [
            (GitSSM, GitReplayWorkload, 1),
            (GitSSM, GitReplayWorkload, 2),
            (GitSSM, GitReplayWorkload, 3),
            (DropboxSSM, DropboxOpsWorkload, 2),
        ],
    )
    def test_recover_on_trimmed_log_resumes_clock_past_logged_times(
        self, ssm_cls, workload_cls, seed
    ):
        # A trimmed log holds far fewer entries than pairs were logged:
        # resuming the clock at the entry count rewinds it, stamps honest
        # pairs into the past and frames the service.
        storage = InMemoryStorage()
        config = LibSealConfig(
            flush_each_pair=False, check_interval=25, trim_interval=25,
            log_id=f"wm-clock-{seed}",
        )
        libseal = LibSeal(ssm_cls(), config=config, storage=storage)
        workload = workload_cls(libseal, seed=seed)
        workload.run(300)
        libseal.audit_log.seal_epoch()
        latest = libseal.audit_log.latest_time
        recovered, report = LibSeal.recover(
            ssm_cls(),
            config=config,
            storage=storage,
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert report.entries < latest  # the trim made the bound false
        assert recovered.logical_time >= latest
        workload.libseal = recovered
        workload.run(100)
        assert recovered.check_invariants(force_full=True).ok
        assert recovered.audit_log.time_monotone

    def test_trim_forces_one_full_scan_then_deltas_resume(self):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
        workload = self.run_workload(libseal)
        first = libseal.check_invariants()
        assert all(s.mode == "full" for s in first.invariant_stats)
        workload.run(10)
        second = libseal.check_invariants()
        assert all(s.mode == "delta" for s in second.invariant_stats)
        libseal.trim()
        workload.run(10)
        third = libseal.check_invariants()
        # Post-trim watermarks are stale: nothing may be skipped.
        assert all(s.mode == "full" for s in third.invariant_stats)
        workload.run(10)
        fourth = libseal.check_invariants()
        assert all(s.mode == "delta" for s in fourth.invariant_stats)

    def test_force_full_bypasses_deltas_once(self):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
        workload = self.run_workload(libseal)
        libseal.check_invariants()
        workload.run(5)
        forced = libseal.check_invariants(force_full=True)
        assert all(s.mode == "full" for s in forced.invariant_stats)

    def test_late_append_under_watermark_forces_full(self, key, rote):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
        self.run_workload(libseal)
        libseal.check_invariants()
        # Tamper-adjacent scenario: a tuple with a regressed time lands in
        # the log. The monotone flag drops and deltas are off for good.
        libseal.audit_log.append("updates", (0, "r", "main", "late", "update"))
        outcome = libseal.check_invariants()
        assert all(s.mode == "full" for s in outcome.invariant_stats)
