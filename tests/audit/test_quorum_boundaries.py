"""ROTE quorum tolerance boundaries: exactly f, exactly f+1, and healing.

The cluster has n = 3f + 1 nodes and needs a quorum of 2f + 1; it must
survive *any* f faulty nodes (crashed, equivocating, or slow — via the
bounded retry/backoff loop) and must degrade into a retryable
``QuorumUnavailableError`` (never a false ``RollbackError``) at f + 1.
A restarted replica serves again only once 2f + 1 peers confirmed its
counters, so more than f memory losses never heal on their own.
"""

import itertools

import pytest

from repro.audit.persistence import LogStorage
from repro.audit.recovery import RecoveryOutcome
from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import LIE_SHAPES
from repro.core import LibSeal
from repro.errors import QuorumUnavailableError, RollbackError
from repro.http import HttpRequest, HttpResponse
from repro.sim.costs import ROTE_BACKOFF_BASE_S
from repro.ssm.base import ServiceSpecificModule


class TestExactlyFFaulty:
    @pytest.mark.parametrize("f", [1, 2])
    def test_any_f_crashed_subset_succeeds(self, f):
        for crashed in itertools.combinations(range(3 * f + 1), f):
            cluster = RoteCluster(f=f)
            for node_id in crashed:
                cluster.crash(node_id)
            assert cluster.increment("log") == 1
            assert cluster.increment("log") == 2
            assert cluster.retrieve("log") == 2

    @pytest.mark.parametrize("f", [1, 2])
    def test_any_f_equivocating_subset_succeeds(self, f):
        for lying in itertools.combinations(range(3 * f + 1), f):
            cluster = RoteCluster(f=f)
            for node_id in lying:
                cluster.equivocate(node_id)
            assert cluster.increment("log") == 1
            assert cluster.retrieve("log") == 1

    def test_mixed_crash_and_equivocation_up_to_f(self):
        cluster = RoteCluster(f=2)  # n=7, quorum=5
        cluster.crash(0)
        cluster.equivocate(1)
        assert cluster.increment("log") == 1
        assert cluster.retrieve("log") == 1

    def test_slow_nodes_succeed_via_retry_and_backoff(self):
        cluster = RoteCluster(f=1)
        # Two slow nodes leave only 2 < quorum responders for one round;
        # the retry loop must ride it out, metering backoff latency.
        cluster.delay(0, rounds=1)
        cluster.delay(1, rounds=1)
        before = cluster.total_latency_ms
        assert cluster.increment("log") == 1
        assert cluster.retry_rounds >= 1
        assert cluster.rpc_timeouts >= 2
        assert cluster.backoff_ms_total >= ROTE_BACKOFF_BASE_S * 1000.0
        assert cluster.total_latency_ms > before

    def test_f_crashed_plus_transient_delays_still_succeed(self):
        # The ISSUE acceptance case: f crashed nodes *and* injected RPC
        # delays on survivors — increments go through on retries.
        cluster = RoteCluster(f=1)
        cluster.crash(0)
        cluster.delay(1, rounds=2)
        assert cluster.increment("log") == 1
        cluster.delay(2, rounds=1)
        assert cluster.increment("log") == 2
        assert cluster.retrieve("log") == 2
        assert cluster.retry_rounds >= 1


class TestBeyondF:
    @pytest.mark.parametrize("f", [1, 2])
    def test_f_plus_one_crashes_exhaust_retries(self, f):
        cluster = RoteCluster(f=f)
        for node_id in range(f + 1):
            cluster.crash(node_id)
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")
        # Every attempt (initial + retries) was made before giving up.
        assert cluster.retry_rounds == cluster.max_retries

    def test_quorum_loss_is_availability_not_rollback(self):
        from repro.errors import AvailabilityError, RollbackError

        cluster = RoteCluster(f=1)
        cluster.crash(0)
        cluster.crash(1)
        with pytest.raises(QuorumUnavailableError) as excinfo:
            cluster.retrieve("log")
        assert isinstance(excinfo.value, AvailabilityError)
        assert not isinstance(excinfo.value, RollbackError)

    def test_permanent_unavailability_is_bounded_by_retries(self):
        cluster = RoteCluster(f=1, max_retries=2)
        cluster.crash(0)
        cluster.crash(1)
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")
        assert cluster.retry_rounds == 2


class TestHealing:
    def test_recovered_node_rejoins_and_quorum_resumes(self):
        cluster = RoteCluster(f=1)
        assert cluster.increment("log") == 1
        cluster.crash(0)
        assert cluster.increment("log") == 2
        # One restart (f = 1): the three peers confirm the restarter.
        cluster.recover(0)
        assert cluster.nodes[0].confirmed
        assert cluster.nodes[0].counters == {"log": 2}
        # With another replica down, progress needs the rejoined one.
        cluster.crash(1)
        assert cluster.increment("log") == 3
        assert cluster.retrieve("log") == 3
        assert cluster.nodes[0].counters == {"log": 3}

    def test_more_than_f_restarts_stay_unavailable(self):
        cluster = RoteCluster(f=1, max_retries=1)
        assert cluster.increment("log") == 1
        cluster.crash(0)
        cluster.crash(1)
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")
        # Each restarter hears from only two confirmed peers: neither is
        # ever confirmed, so both stay silent and the quorum never forms.
        cluster.recover(1)
        cluster.recover(0)
        assert not cluster.nodes[0].confirmed
        assert not cluster.nodes[1].confirmed
        with pytest.raises(QuorumUnavailableError):
            cluster.retrieve("log")
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")

    def test_rejoined_node_catches_up_through_increments(self):
        cluster = RoteCluster(f=1)
        cluster.crash(3)
        for _ in range(4):
            cluster.increment("log")
        cluster.recover(3)
        assert cluster.increment("log") == 5
        # The rejoined node acknowledged the new value.
        assert cluster.nodes[3].counters["log"] == 5


class BoundarySSM(ServiceSpecificModule):
    """Minimal SSM: one tuple per pair, no invariants."""

    name = "pairs"
    schema_sql = "CREATE TABLE pairs(time INTEGER, path TEXT)"
    invariants = {}
    trimming_queries = []

    def log(self, request, response, emit, time):
        emit("pairs", (time, request.path))


class TestMixedFaultBoundaries:
    """Exactly f Byzantine *and* f crashed at n = 3f + 1, end to end.

    That combination leaves 2f + 1 live repliers of which f lie. A write
    quorum counts distinct replies, so it still completes — and contains
    at least f + 1 honest storers, so every later read quorum of 2f + 1
    intersects one of them and freshness stays certifiable. One *more*
    crash drops the live count below quorum: that must surface as an
    availability fault, never as rollback evidence.
    """

    @pytest.mark.parametrize("shape", LIE_SHAPES)
    @pytest.mark.parametrize("f", [1, 2])
    def test_f_byzantine_plus_f_crashed_still_certify(self, f, shape):
        cluster = RoteCluster(f=f)
        for node_id in range(f):
            cluster.equivocate(node_id, shape=shape)
        for node_id in range(f, 2 * f):
            cluster.crash(node_id)
        assert cluster.increment("log") == 1
        assert cluster.increment("log") == 2
        assert cluster.retrieve("log") == 2

    @pytest.mark.parametrize("f", [1, 2])
    def test_one_more_crash_is_availability_not_rollback(self, f):
        cluster = RoteCluster(f=f, max_retries=2)
        for node_id in range(f):
            cluster.equivocate(node_id, shape="under_report")
        for node_id in range(f, 2 * f + 1):
            cluster.crash(node_id)
        with pytest.raises(QuorumUnavailableError) as excinfo:
            cluster.increment("log")
        assert not isinstance(excinfo.value, RollbackError)

    @pytest.mark.parametrize("f", [1, 2])
    def test_recover_certifies_freshness_under_mixed_f_faults(self, f, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(
            BoundarySSM(), storage=LogStorage(path), rote=RoteCluster(f=f)
        )
        for index in range(3):
            libseal.log_pair(HttpRequest("GET", f"/p/{index}"), HttpResponse(200))
        rote = libseal.rote
        for node_id in range(f):
            rote.equivocate(node_id, shape="stale_echo")
        for node_id in range(f, 2 * f):
            rote.crash(node_id)
        recovered, report = LibSeal.recover(
            BoundarySSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=rote,
        )
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert recovered is not None
        assert not recovered.degraded.active

    @pytest.mark.parametrize("f", [1, 2])
    def test_recover_degrades_beyond_f_and_never_cries_rollback(self, f, tmp_path):
        path = tmp_path / "log.bin"
        libseal = LibSeal(
            BoundarySSM(), storage=LogStorage(path), rote=RoteCluster(f=f)
        )
        for index in range(3):
            libseal.log_pair(HttpRequest("GET", f"/p/{index}"), HttpResponse(200))
        rote = libseal.rote
        for node_id in range(f):
            rote.equivocate(node_id, shape="stale_echo")
        for node_id in range(f, 2 * f + 1):
            rote.crash(node_id)
        recovered, report = LibSeal.recover(
            BoundarySSM(),
            LogStorage(path),
            signing_key=libseal.signing_key,
            rote=rote,
        )
        assert report.outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE
        assert report.outcome is not RecoveryOutcome.ROLLBACK_DETECTED
        assert recovered is not None
        assert recovered.degraded.active
        assert recovered.degraded.reason == "freshness-unverifiable"
        # The restarted replica hears from only the f honest survivors
        # (liars serve no catch-up): it is never confirmed, so the group
        # stays unverifiable rather than certify a value it lost.
        rote.recover(f)
        assert not rote.nodes[f].confirmed
        assert not recovered.try_reseal()
        assert recovered.degraded.reason == "freshness-unverifiable"
