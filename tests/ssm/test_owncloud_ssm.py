"""ownCloud SSM: logging and detection of lost/corrupted edits (§6.1/§6.2)."""

import json

import pytest

from repro.core import LibSeal, LibSealConfig
from repro.http import HttpRequest
from repro.services.owncloud import OwnCloudHttpService, OwnCloudServer
from repro.ssm import OwnCloudSSM
from repro.workloads import OwnCloudEditWorkload

from tests.ssm.conftest import drive


@pytest.fixture
def stack(make_libseal):
    server = OwnCloudServer()
    service = OwnCloudHttpService(server)
    libseal = make_libseal(OwnCloudSSM())
    return server, service, libseal


def post(service, libseal, doc, action, payload):
    request = HttpRequest(
        "POST", f"/documents/{doc}/{action}", body=json.dumps(payload).encode()
    )
    response = drive(service, libseal, request)
    assert response.status == 200, response.body
    return json.loads(response.body) if response.body else {}


def op(pos, text):
    return {"op": "insert", "pos": pos, "text": text, "len": 0}


def join(service, libseal, doc, member):
    return post(service, libseal, doc, "join", {"member": member})


def sync(service, libseal, doc, member, seq, ops):
    return post(service, libseal, doc, "sync",
                {"member": member, "seq": seq, "ops": ops})


def leave(service, libseal, doc, member, snapshot, seq):
    return post(service, libseal, doc, "leave",
                {"member": member, "snapshot": snapshot, "seq": seq})


class TestLogging:
    def test_sync_logs_client_and_server_ops(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        join(service, libseal, "d", "bob")
        sync(service, libseal, "d", "ann", 0, [op(0, "hello")])
        sync(service, libseal, "d", "bob", 0, [])
        rows = libseal.audit_log.query(
            "SELECT direction, kind, member FROM docupdates WHERE kind = 'op' "
            "ORDER BY time"
        ).rows
        assert ("c2s", "op", "ann") in rows
        assert ("s2c", "op", "bob") in rows

    def test_join_logs_snapshot(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        rows = libseal.audit_log.query(
            "SELECT kind FROM docupdates ORDER BY kind"
        ).rows
        assert ("join",) in rows
        assert ("snapshot",) in rows

    def test_leave_logs_client_snapshot(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 0, [op(0, "v1")])
        leave(service, libseal, "d", "ann", "v1", 1)
        rows = libseal.audit_log.query(
            "SELECT payload FROM docupdates WHERE kind = 'snapshot' "
            "AND direction = 'c2s'"
        ).rows
        assert rows == [("v1",)]


class TestDetection:
    def test_honest_collaboration_passes(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        join(service, libseal, "d", "bob")
        sync(service, libseal, "d", "ann", 0, [op(0, "hello")])
        reply = sync(service, libseal, "d", "bob", 0, [op(5, " world")])
        assert len(reply["ops"]) == 1
        sync(service, libseal, "d", "ann", 1, [])
        outcome = libseal.check_invariants()
        assert outcome.ok, outcome.violations

    def test_lost_edit_detected_by_completeness(self, stack):
        server, service, libseal = stack
        join(service, libseal, "d", "ann")
        join(service, libseal, "d", "bob")
        sync(service, libseal, "d", "ann", 0, [op(0, "first")])
        sync(service, libseal, "d", "ann", 1, [op(5, "LOST")])
        server.attack_drop_update("d", 2)
        # Bob syncs twice; the server never delivers seq 2 but delivers 3.
        sync(service, libseal, "d", "ann", 2, [op(0, "third")])
        sync(service, libseal, "d", "bob", 0, [])
        outcome = libseal.check_invariants()
        assert not outcome.ok
        assert outcome.violations["update_completeness"]

    def test_corrupted_edit_detected_by_soundness(self, stack):
        server, service, libseal = stack
        join(service, libseal, "d", "ann")
        join(service, libseal, "d", "bob")
        sync(service, libseal, "d", "ann", 0, [op(0, "secret")])
        server.attack_corrupt_update("d", 1)
        sync(service, libseal, "d", "bob", 0, [])
        outcome = libseal.check_invariants()
        assert not outcome.ok
        assert outcome.violations["update_soundness"]

    def test_stale_snapshot_detected(self, stack):
        server, service, libseal = stack
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 0, [op(0, "v1")])
        server.attack_stale_snapshot("d")
        leave(service, libseal, "d", "ann", "v1", 1)
        join(service, libseal, "d", "carol")  # gets the stale empty snapshot
        outcome = libseal.check_invariants()
        assert not outcome.ok
        assert outcome.violations["snapshot_soundness"]

    def test_fresh_snapshot_not_flagged(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 0, [op(0, "v1")])
        leave(service, libseal, "d", "ann", "v1", 1)
        join(service, libseal, "d", "carol")
        outcome = libseal.check_invariants()
        assert outcome.ok, outcome.violations

    def test_trimming_keeps_last_session(self, stack):
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 0, [op(0, "v1")])
        leave(service, libseal, "d", "ann", "v1", 1)
        before = libseal.audit_log.row_count("docupdates")
        removed = libseal.trim()
        assert removed > 0
        assert libseal.audit_log.row_count("docupdates") < before
        # The latest client snapshot must survive (needed for invariant 1).
        rows = libseal.audit_log.query(
            "SELECT payload FROM docupdates WHERE kind = 'snapshot' "
            "AND direction = 'c2s'"
        ).rows
        assert rows == [("v1",)]

    def test_detection_after_trimming(self, stack):
        server, service, libseal = stack
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 0, [op(0, "v1")])
        leave(service, libseal, "d", "ann", "v1", 1)
        libseal.trim()
        server.attack_stale_snapshot("d")
        sync(service, libseal, "d", "ann", 1, [op(2, "+2")])
        leave(service, libseal, "d", "ann", "v1+2", 2)
        join(service, libseal, "d", "dave")  # stale snapshot served
        outcome = libseal.check_invariants()
        assert not outcome.ok
        assert outcome.violations["snapshot_soundness"]


class TestTrimmingNeverFramesAnHonestService:
    """Periodic check + trim over long honest runs. Trimming by time used
    to delete a client's op while keeping a later delivery that echoed it
    (a false ``update_soundness`` row) and every ``join`` baseline (which
    turned ``update_completeness`` off)."""

    @staticmethod
    def _deployment(seed=11):
        libseal = LibSeal(
            OwnCloudSSM(),
            LibSealConfig(flush_each_pair=False, check_interval=75, trim_interval=75),
        )
        return libseal, OwnCloudEditWorkload(libseal, seed=seed)

    @pytest.mark.parametrize("seed", [3, 5, 7, 11])
    def test_long_honest_run_raises_no_alarm(self, seed):
        libseal, workload = self._deployment(seed)
        workload.run(600, snapshot_every=40)
        stats = libseal.checker.stats
        assert stats.checks_run == stats.trims_run == 8
        assert not stats.violation_history  # none of the periodic checks
        assert libseal.check_invariants(force_full=True).ok
        # ... and trimming still trims: about one session is left, not 600
        # requests' worth of rows (~1770 untrimmed).
        assert stats.tuples_trimmed > 1000
        assert libseal.audit_log.row_count("docupdates") < 450

    @pytest.mark.parametrize(
        "attack,invariant",
        [
            ("attack_drop_update", "update_completeness"),
            ("attack_corrupt_update", "update_soundness"),
        ],
    )
    def test_attack_after_trims_is_still_detected(self, attack, invariant):
        libseal, workload = self._deployment()
        workload.run(300, snapshot_every=40)
        assert libseal.checker.stats.trims_run == 4
        assert not libseal.checker.stats.violation_history
        doc = workload.documents[0]
        server = workload.service.server
        getattr(server, attack)(doc, server.document(doc).head_seq + 1)
        for _ in range(12):  # the next edit is the victim; others sync past it
            workload.edit_once(doc)
        outcome = libseal.check_invariants()
        assert outcome.violations[invariant], outcome.violations
        assert [k for k, rows in outcome.violations.items() if rows] == [invariant]

    def test_late_joiner_is_replayed_ops_the_trim_had_to_keep(self, stack):
        """Ops every member already holds are still replayed to whoever
        joins next, as long as they follow the latest snapshot — so they
        may not be trimmed however widely they were delivered."""
        _, service, libseal = stack
        join(service, libseal, "d", "ann")
        join(service, libseal, "d", "bob")
        sync(service, libseal, "d", "ann", 0, [op(0, "a")])        # seq 1
        sync(service, libseal, "d", "bob", 0, [])
        leave(service, libseal, "d", "ann", "a", 1)                # snapshot @1
        join(service, libseal, "d", "ann")
        sync(service, libseal, "d", "ann", 1, [op(1, "b")])        # seq 2
        sync(service, libseal, "d", "bob", 1, [op(2, "c")])        # seq 3, gets 2
        sync(service, libseal, "d", "ann", 2, [])                  # gets 3
        assert libseal.trim() > 0
        kept = libseal.audit_log.query(
            "SELECT DISTINCT seq FROM docupdates WHERE kind = 'op' ORDER BY seq"
        ).rows
        assert kept == [(2,), (3,)]
        replayed = join(service, libseal, "d", "carol")
        assert [o["seq"] for o in replayed["ops"]] == [2, 3]
        assert libseal.check_invariants(force_full=True).ok
