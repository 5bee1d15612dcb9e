"""The sharded plane: routing, admission, scatter/gather, fail-closed
transfers.

Everything here runs over the simulated message network: shard joins are
mutual RA-TLS admissions, invariant checks are scattered commands and
gathered generation-stamped replies, and range transfers are verified
end to end (manifest signature, splice head, range containment, epoch
liveness) before a single tuple lands.
"""

import pytest

from repro.errors import (
    AttestationError,
    FreshnessUnverifiableError,
    IntegrityError,
    RangeUnavailableError,
)
from repro.shard import ShardPlane
from repro.shard.instance import RangeTransfer, splice_head_of
from repro.workloads.messaging_traffic import MessagingWorkload
from tests.quorum_outage import cut_off, reconnect


def make_plane(shards=("shard-0", "shard-1"), **kwargs):
    return ShardPlane(shards=shards, seed=7, **kwargs)


def make_loaded_plane(shards=("shard-0", "shard-1"), pairs=60):
    plane = make_plane(shards)
    workload = MessagingWorkload(
        plane, channels=24, members=2, fetch_ratio=0.0, seed=3
    )
    workload.run(pairs)
    return plane, workload


class TestRouting:
    def test_pairs_land_on_the_owning_shard(self):
        plane, _ = make_loaded_plane()
        assert plane.placement_problems() == []
        assert plane.pair_accounting() == []
        assert sum(
            instance.payload_count()
            for instance in plane.instances.values()
        ) == plane.tuples_routed

    def test_every_shard_gets_traffic(self):
        plane, _ = make_loaded_plane()
        for shard_id, instance in plane.instances.items():
            assert instance.payload_count() > 0, shard_id

    def test_plane_clock_is_globally_monotonic(self):
        plane, _ = make_loaded_plane()
        times = plane.scatter_query(
            "SELECT time FROM posts", ()
        )
        assert plane.clock >= max(t for (t,) in times)

    def test_frozen_range_blocks_instead_of_misplacing(self):
        plane, workload = make_loaded_plane()
        channel = workload.channels[0]
        point = plane.router.point(channel)
        plane.rebalancer.frozen = tuple(
            rng
            for rng, _ in plane.router.ranges()
            if rng.contains(point)
        )
        with pytest.raises(RangeUnavailableError):
            workload.post_once(channel)
        assert plane.pairs_blocked_moving == 1
        plane.rebalancer.frozen = ()
        workload.post_once(channel)
        assert plane.pair_accounting() == []


class TestAdmission:
    def test_bootstrap_shards_are_mutually_admitted(self):
        plane = make_plane()
        for instance in plane.instances.values():
            assert plane.admission.is_admitted(instance.address)
            assert instance.plane_admitted
            assert instance.shard_id in plane.directory

    def test_attestation_outage_fails_provisioning_closed(self):
        plane = make_plane()
        plane.attestation.service.available = False
        with pytest.raises(AttestationError):
            plane.provisioner.provision("shard-9")
        assert "shard-9" not in plane.instances
        assert "shard-9" not in plane.directory
        assert plane.provisioner.admission_failures == 1

    def test_decommission_removes_directory_key(self):
        plane = make_plane(("shard-0", "shard-1"))
        assert plane.provisioner.decommission("shard-1")
        assert "shard-1" not in plane.directory
        assert not plane.provisioner.decommission("shard-1")  # idempotent


class TestScatterGather:
    def test_merged_verdict_covers_every_shard(self):
        plane, _ = make_loaded_plane(("shard-0", "shard-1", "shard-2"))
        outcome = plane.check_invariants(force_full=True)
        assert outcome.ok
        assert sorted(outcome.per_shard) == sorted(plane.instances)
        assert outcome.unchecked == []
        assert outcome.outcome.rows_scanned > 0

    def test_stale_generation_reply_is_dropped_and_counted(self):
        plane, _ = make_loaded_plane()
        liar = plane.instances["shard-0"]
        liar.stale_claim = (liar.generation - 1, liar.owned_ranges)
        outcome = plane.check_invariants()
        assert not outcome.ok
        assert outcome.dropped_stale == ["shard-0"]
        assert "shard-0" in outcome.unchecked
        assert plane.stale_owner_drops == 1
        liar.stale_claim = None
        assert plane.check_invariants().ok

    def test_scatter_query_merges_all_shards(self):
        plane, _ = make_loaded_plane()
        merged = plane.scatter_query("SELECT COUNT(*) FROM posts", ())
        total = sum(count for (count,) in merged)
        per_shard = sum(
            instance.libseal.audit_log.db.execute(
                "SELECT COUNT(*) FROM posts", ()
            ).first()[0]
            for instance in plane.instances.values()
        )
        assert total == per_shard > 0


class TestVerifyAll:
    def _plane_with_an_idle_shard(self):
        plane = make_plane()
        workload = MessagingWorkload(
            plane, channels=1, members=2, fetch_ratio=0.0, seed=3
        )
        workload.run(10)  # one channel: every pair lands on one shard
        (idle,) = [
            instance
            for instance in plane.instances.values()
            if instance.payload_count() == 0
        ]
        assert idle.libseal.audit_log.signed_head is None
        return plane, idle

    def test_shard_that_never_received_a_pair_verifies(self):
        plane, _ = self._plane_with_an_idle_shard()
        plane.verify_all()

    def test_headless_log_under_advanced_counter_fails_closed(self):
        # Counter > 0 means something was sealed once: a log presenting
        # no head at all is then a deleted log, not a fresh one.
        plane, idle = self._plane_with_an_idle_shard()
        idle.cluster.increment(idle.config.log_id)
        with pytest.raises(IntegrityError, match="no signed head"):
            plane.verify_all()


class TestFailClosedTransfers:
    def test_tampered_payloads_are_rejected_before_append(self):
        plane, _ = make_loaded_plane(("shard-0", "shard-1", "shard-2"))
        source = plane.instances["shard-0"]
        target = plane.instances["shard-1"]
        ranges = tuple(plane.router.ranges_of("shard-0"))
        payloads = source.export_payloads(ranges)
        assert payloads, "need a non-vacuous transfer"
        # A forged transfer whose payloads do not match the manifest's
        # splice head must leave the target byte-identical.
        before = target.payload_count()
        from repro.shard.instance import RangeManifest

        manifest = RangeManifest.sign(
            source.signing_key,
            change_id="forged-1",
            source_shard="shard-0",
            target_shard="shard-1",
            ranges_digest=RangeManifest.digest_ranges(ranges),
            splice_head=splice_head_of(payloads),
            tuple_count=len(payloads),
            counter_value=1,
            epoch=plane.authority.current_epoch,
        )
        tampered = payloads[:-1] + (("posts", (0, "chan-0", 999, "x", "y")),)
        plane.network.send(
            source.address,
            target.address,
            RangeTransfer(
                change_id="forged-1",
                source_shard="shard-0",
                ranges=ranges,
                payloads=tampered,
                manifest=manifest,
                reply_to=plane.address,
            ),
        )
        plane.network.settle()
        ack = plane.take_ack("forged-1", "shard-0", "shard-1")
        assert ack is not None and ack.status == "integrity"
        assert target.payload_count() == before

    def test_unknown_source_is_rejected(self):
        plane, _ = make_loaded_plane()
        source = plane.instances["shard-0"]
        target = plane.instances["shard-1"]
        ranges = tuple(plane.router.ranges_of("shard-0"))
        payloads = source.export_payloads(ranges)
        from repro.shard.instance import RangeManifest

        manifest = RangeManifest.sign(
            source.signing_key,
            change_id="rogue-1",
            source_shard="ghost",
            target_shard="shard-1",
            ranges_digest=RangeManifest.digest_ranges(ranges),
            splice_head=splice_head_of(payloads),
            tuple_count=len(payloads),
            counter_value=1,
            epoch=plane.authority.current_epoch,
        )
        plane.network.send(
            source.address,
            target.address,
            RangeTransfer(
                change_id="rogue-1",
                source_shard="ghost",
                ranges=ranges,
                payloads=payloads,
                manifest=manifest,
                reply_to=plane.address,
            ),
        )
        plane.network.settle()
        ack = plane.take_ack("rogue-1", "ghost", "shard-1")
        assert ack is not None and ack.status == "integrity"
        assert "unknown source" in ack.reason

    def test_degraded_source_fails_the_change_closed(self):
        plane, _ = make_loaded_plane(("shard-0", "shard-1", "shard-2"))
        victim = plane.instances["shard-1"]
        # Take the victim's whole counter quorum down: its tail freshness
        # becomes unprovable and the merge must abort with the WAL held.
        cut_off(victim.cluster, range(victim.cluster.n))
        with pytest.raises(FreshnessUnverifiableError):
            plane.rebalancer.merge("shard-1")
        assert plane.rebalancer.pending()
        assert plane.router.members == ("shard-0", "shard-1", "shard-2")
        assert plane.rebalancer.failclosed_aborts == 1
        # Quorum heals; the WAL replays to completion.
        reconnect(victim.cluster)
        report = plane.rebalancer.resume()
        assert report is not None and report.completed
        assert plane.router.members == ("shard-0", "shard-2")
        assert plane.placement_problems() == []
        assert plane.pair_accounting() == []


class TestByzantineReplay:
    def test_replayed_transfer_is_dropped_not_duplicated(self):
        plane, _ = make_loaded_plane(("shard-0", "shard-1"))
        old_owner = plane.instances["shard-0"]
        plane.rebalancer.split("shard-2")
        assert old_owner.sent_transfers, "split moved nothing off shard-0"
        for target_address, transfer in old_owner.sent_transfers:
            plane.network.send(old_owner.address, target_address, transfer)
        plane.network.settle()
        assert plane.instances["shard-2"].duplicate_transfer_drops > 0
        assert plane.pair_accounting() == []
        assert plane.placement_problems() == []
