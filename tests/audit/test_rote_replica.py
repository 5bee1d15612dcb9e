"""ROTE replica state machines: attestations, lifecycle, lie models."""

import pytest

from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import (
    LIE_SHAPES,
    CatchupRequest,
    CounterAttestation,
    IncrementRequest,
    LieModel,
    RetrieveRequest,
    RoteReplica,
)
from repro.errors import QuorumUnavailableError, SimulationError
from repro.sgx.sealing import SigningAuthority
from repro.sim.network import SimNetwork


@pytest.fixture
def authority():
    return SigningAuthority("rote-test-authority")


@pytest.fixture
def group_key(authority):
    return authority.derive_group_key(b"rote")


class TestCounterAttestation:
    def test_sign_verify_round_trip(self, group_key):
        att = CounterAttestation.sign(group_key, "log", 7)
        assert att.verify(group_key)

    def test_tampered_value_rejected(self, group_key):
        att = CounterAttestation.sign(group_key, "log", 7)
        forged = CounterAttestation("log", 8, att.mac)
        assert not forged.verify(group_key)

    def test_wrong_log_rejected(self, group_key):
        att = CounterAttestation.sign(group_key, "log", 7)
        moved = CounterAttestation("other", 7, att.mac)
        assert not moved.verify(group_key)

    def test_wrong_key_rejected(self, authority, group_key):
        att = CounterAttestation.sign(group_key, "log", 7)
        other = authority.derive_group_key(b"different-cluster")
        assert not att.verify(other)

    def test_out_of_range_values_rejected(self, group_key):
        assert not CounterAttestation("log", -1, b"\x00" * 32).verify(group_key)
        assert not CounterAttestation.sign(group_key, "log", 1 << 63).verify(group_key)


class TestReplicaLifecycle:
    def make_replica(self, authority):
        net = SimNetwork(seed=1)
        replica = RoteReplica(0, net, authority)
        att = CounterAttestation.sign(replica.group_key, "log", 5)
        replica._accept(att)
        return net, replica

    def test_crash_wipes_memory_and_restart_reads_nothing_back(self, authority):
        _, replica = self.make_replica(authority)
        assert replica.counters == {"log": 5}
        replica.crash()
        assert replica.crashed and not replica.confirmed
        assert replica.counters == {}
        # No peers, nothing on disk: the replica comes back empty and
        # unconfirmed.
        replica.restart()
        assert not replica.crashed
        assert replica.restarts == 1
        assert replica.counters == {}
        assert not replica.confirmed

    def test_crashed_replica_ignores_messages(self, authority):
        net, replica = self.make_replica(authority)
        received = []
        net.register("probe", lambda msg, src: received.append(msg))
        replica.crash()
        from repro.audit.rote_replica import RetrieveRequest

        net.send("probe", replica.address, RetrieveRequest(op_id=1, log_id="log"))
        net.settle()
        assert received == []

    def test_restart_catches_up_from_peers(self, authority):
        """A rejoiner with a stale sealed blob learns newer values."""
        cluster = RoteCluster(f=1, authority=authority, seed=11)
        cluster.increment("log")
        cluster.crash(0)
        cluster.increment("log")
        cluster.increment("log")
        cluster.recover(0)  # restart + catch-up broadcast + settle
        assert cluster.nodes[0].counters["log"] == 3
        assert cluster.nodes[0].catchup_merges >= 1

    def test_lying_peers_do_not_serve_catchup(self, authority):
        cluster = RoteCluster(f=1, authority=authority, seed=12)
        cluster.increment("log")
        for i in (1, 2, 3):
            cluster.equivocate(i, shape="stale_echo")
        cluster.crash(0)
        cluster.recover(0)
        assert all(cluster.nodes[i].catchups_served == 0 for i in (1, 2, 3))


class TestConfirmation:
    """A restarted replica serves nothing until 2f+1 peers vouched for it."""

    SPLIT = "hide-peer"

    def rejoin_missing_a_peer(self, authority):
        """Restart replica 0 while peer 3 cannot hear it: 2f replies."""
        cluster = RoteCluster(f=1, authority=authority, seed=14)
        cluster.increment("log")
        cluster.crash(0)
        cluster.increment("log")
        cluster.network.partition(
            self.SPLIT, [[cluster.nodes[0].address], [cluster.nodes[3].address]]
        )
        cluster.recover(0)
        return cluster, cluster.nodes[0]

    def test_unconfirmed_replica_is_silent(self, authority):
        cluster, replica = self.rejoin_missing_a_peer(authority)
        assert not replica.confirmed
        # Two peers' catch-up was merged, but it is not served.
        assert replica.counters == {"log": 2}
        received = []
        cluster.network.register("probe", lambda msg, src: received.append(msg))
        proposal = CounterAttestation.sign(
            cluster.group_key, "log", 3, cluster.epoch
        )
        for message in (
            IncrementRequest(1, "log", proposal),
            RetrieveRequest(2, "log", cluster.epoch),
            CatchupRequest(3),
        ):
            cluster.network.send("probe", replica.address, message)
        cluster.network.settle()
        assert received == []
        assert replica.counters == {"log": 2}
        assert not replica.confirmed  # peer 3 is still cut off
        # A confirmed peer answers the same read.
        cluster.network.send(
            "probe", cluster.nodes[1].address, RetrieveRequest(4, "log", cluster.epoch)
        )
        cluster.network.settle()
        assert [reply.value for reply in received] == [2]

    def test_confirms_after_2f_plus_1_peers(self, authority):
        cluster, replica = self.rejoin_missing_a_peer(authority)
        cluster.network.heal(self.SPLIT)
        replica.crash()
        cluster.recover(0)  # all three peers answer this round
        assert replica.confirmed
        assert replica.counters == {"log": 2}
        cluster.crash(1)  # the group now needs replica 0 for a quorum
        assert cluster.increment("log") == 3
        assert replica.counters == {"log": 3}

    def test_confirms_once_the_missing_peer_is_heard(self, authority):
        cluster, replica = self.rejoin_missing_a_peer(authority)
        cluster.network.heal(self.SPLIT)
        assert not replica.confirmed
        # The next client request it silences re-sends the catch-up read
        # to peer 3 alone; its reply is the third voucher.
        served = replica.catchups_served, cluster.nodes[3].catchups_served
        assert cluster.increment("log") == 3
        assert replica.confirmed
        assert cluster.nodes[3].catchups_served == served[1] + 1
        assert all(cluster.nodes[i].catchups_served == 1 for i in (1, 2))
        cluster.crash(1)
        assert cluster.increment("log") == 4
        assert replica.counters == {"log": 4}

    def test_two_sequential_restarts_keep_the_quorum(self, authority):
        # Replica 0 rejoins while peer 3 is cut off; the partition heals
        # and replica 2 restarts before any client traffic, so 0 silences
        # 2's catch-up. Client traffic then confirms 0, and 0 confirms 2.
        cluster, replica = self.rejoin_missing_a_peer(authority)
        cluster.network.heal(self.SPLIT)
        cluster.crash(2)
        cluster.recover(2)
        assert not replica.confirmed and not cluster.nodes[2].confirmed
        assert cluster.increment("log") == 3
        assert cluster.retrieve("log") == 3
        assert replica.confirmed and cluster.nodes[2].confirmed
        cluster.crash(3)  # a quorum now needs both restarters
        assert cluster.increment("log") == 4
        assert cluster.retrieve("log") == 4

    def test_rejoiners_do_not_re_ask_each_other(self, authority):
        # More than f restarts: each rejoiner's retry reaches the other,
        # which stays silent without answering with a retry of its own.
        cluster = RoteCluster(f=1, authority=authority, max_retries=1)
        cluster.increment("log")
        for i in (0, 1):
            cluster.crash(i)
        for i in (0, 1):
            cluster.recover(i)
        sent = cluster.network.stats.sent
        with pytest.raises(QuorumUnavailableError):
            cluster.retrieve("log")
        cluster.network.settle()
        # Each of the two rounds: four requests, replies from replicas 2
        # and 3, and one re-ask from each rejoiner (to the other).
        assert cluster.network.stats.sent - sent == 2 * (4 + 2 + 2)
        assert cluster.network.in_flight == 0
        assert not cluster.nodes[0].confirmed and not cluster.nodes[1].confirmed


class TestLieModels:
    def history(self, group_key, values):
        return [CounterAttestation.sign(group_key, "log", v) for v in values]

    def test_unknown_shape_rejected(self):
        with pytest.raises(SimulationError):
            LieModel("gaslight")

    def test_under_report_replays_an_older_attestation(self, group_key):
        history = self.history(group_key, [1, 2, 3, 4])
        lie = LieModel("under_report", seed=0)
        reply = lie.shape_reply("log", history[-1], history, requester="c")
        assert reply in history[:-1]
        assert reply.verify(group_key)  # stale but MAC-valid

    def test_stale_echo_pins_the_first_value(self, group_key):
        history = self.history(group_key, [1, 2, 3])
        lie = LieModel("stale_echo")
        for _ in range(3):
            assert lie.shape_reply("log", history[-1], history, "c") == history[0]

    def test_split_brain_differs_per_requester(self, group_key):
        history = self.history(group_key, [1, 2, 3])
        lie = LieModel("split_brain", seed=0)
        replies = {
            requester: lie.shape_reply("log", history[-1], history, requester)
            for requester in (f"client-{i}" for i in range(16))
        }
        assert set(replies.values()) == {history[0], history[-1]}
        # Personas are stable: the same requester always sees the same face.
        for requester, reply in replies.items():
            assert lie.shape_reply("log", history[-1], history, requester) == reply

    def test_forge_produces_higher_but_invalid_attestation(self, group_key):
        history = self.history(group_key, [1, 2, 3])
        lie = LieModel("forge", seed=0)
        reply = lie.shape_reply("log", history[-1], history, "c")
        assert reply.value > history[-1].value
        assert not reply.verify(group_key)

    def test_shapes_are_seed_deterministic(self, group_key):
        history = self.history(group_key, list(range(1, 8)))
        for shape in LIE_SHAPES:
            a = LieModel(shape, seed=3)
            b = LieModel(shape, seed=3)
            for _ in range(5):
                assert a.shape_reply("log", history[-1], history, "c") == (
                    b.shape_reply("log", history[-1], history, "c")
                )
