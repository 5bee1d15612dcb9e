"""Rebalance crash safety: a crash at *every* checkpoint must replay to
exactly one owner per range with zero lost or duplicated audit pairs.

The shared WAL crash matrix (``tests/wal_matrix.py``) injects a crash at
each ``shard.step`` checkpoint; traffic keeps flowing into the half-done
change (writes to moving ranges block fail-closed), then we replay the
membership WAL and assert full convergence — membership records appended
exactly once, placement and pair accounting spotless, every shard log
verifying end to end.
"""

import pytest

from repro.audit.hashchain import MembershipIntent
from repro.errors import RangeUnavailableError, SimulationError
from repro.shard import ShardPlane
from repro.shard.rebalance import Rebalancer
from repro.workloads.messaging_traffic import MessagingWorkload
from tests.wal_matrix import WalCase, crash_at, crash_matrix


def make_stack(shards):
    plane = ShardPlane(shards=shards, seed=7)
    workload = MessagingWorkload(
        plane, channels=24, members=2, fetch_ratio=0.0, seed=3
    )
    workload.run(60)
    return plane, workload


def assert_converged(plane, expected_members):
    assert plane.router.members == expected_members
    assert not plane.rebalancer.pending()
    assert plane.rebalancer.frozen == ()
    assert plane.placement_problems() == []
    assert plane.pair_accounting() == []
    assert plane.check_invariants(force_full=True).ok
    plane.verify_all()
    changes = plane.membership.changes()
    assert sum(1 for c in changes if "[begin]" in c) == 1
    assert sum(1 for c in changes if "[cutover]" in c) == 1


def _keep_posting(stack) -> None:
    # Traffic keeps flowing into the half-done change; pairs aimed at
    # moving ranges block (never misplace), the rest land normally.
    _, workload = stack
    flowed = 0
    for _ in range(20):
        try:
            workload.post_once()
            flowed += 1
        except RangeUnavailableError:
            pass
    assert flowed > 0


def _assert_split_converged(stack, report) -> None:
    plane, workload = stack
    assert report.completed
    workload.run(15)
    assert_converged(plane, ("shard-0", "shard-1", "shard-2"))


def _build_for_merge():
    plane, workload = make_stack(("shard-0", "shard-1", "shard-2"))
    assert plane.instances["shard-1"].payload_count() > 0
    return plane, workload


def _assert_merge_converged(stack, report) -> None:
    plane, workload = stack
    assert report.completed
    workload.run(15)
    assert_converged(plane, ("shard-0", "shard-2"))
    assert "shard-1" not in plane.instances


SPLIT_CASE = WalCase(
    coordinator_type=Rebalancer,
    build=lambda: make_stack(("shard-0", "shard-1")),
    coordinator=lambda stack: stack[0].rebalancer,
    start=lambda stack: stack[0].rebalancer.split("shard-2"),
    while_crashed=_keep_posting,
    assert_converged=_assert_split_converged,
)

MERGE_CASE = WalCase(
    coordinator_type=Rebalancer,
    build=_build_for_merge,
    coordinator=lambda stack: stack[0].rebalancer,
    start=lambda stack: stack[0].rebalancer.merge("shard-1"),
    assert_converged=_assert_merge_converged,
)


class TestSplitCrashMatrix:
    test_crash_then_resume_converges = crash_matrix(SPLIT_CASE)

    def test_pre_cutover_crash_blocks_moving_ranges(self):
        # Until cutover (checkpoint 5) the moving ranges stay frozen
        # across the crash — the window that guarantees zero lost pairs.
        plane, workload = make_stack(("shard-0", "shard-1"))
        crash_at(plane.rebalancer, 4, lambda: plane.rebalancer.split("shard-2"))
        moving = plane.rebalancer.frozen
        assert moving
        blocked = 0
        for channel in workload.channels:
            point = plane.router.point(channel)
            if any(rng.contains(point) for rng in moving):
                with pytest.raises(RangeUnavailableError):
                    workload.post_once(channel)
                blocked += 1
        assert blocked > 0
        assert plane.pairs_blocked_moving == blocked
        assert plane.rebalancer.resume().completed


class TestMergeCrashMatrix:
    test_crash_then_resume_converges = crash_matrix(MERGE_CASE)


class TestWalHygiene:
    def test_resume_without_wal_is_noop(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        assert plane.rebalancer.resume() is None

    def test_double_resume_is_idempotent(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        crash_at(plane.rebalancer, 3, lambda: plane.rebalancer.split("shard-2"))
        assert plane.rebalancer.resume() is not None
        assert plane.rebalancer.resume() is None  # WAL cleared

    def test_forged_wal_entry_is_discarded(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        forged = MembershipIntent(
            plane_id=plane.plane_id,
            change_id="forged-1",
            kind="split",
            shard="shard-9",
            generation_from=1,
            generation_to=2,
            epoch=1,
            tag=bytes(32),
        )
        plane.control_storage.save_intent(forged.encode(), "membership")
        assert plane.rebalancer.resume() is None
        assert not plane.rebalancer.pending()
        assert plane.router.members == ("shard-0", "shard-1")

    def test_foreign_wal_entry_is_discarded(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        other = ShardPlane(plane_id="other", shards=("x",), seed=9)
        foreign = MembershipIntent.seal(
            other.signing_key,
            plane_id="other",
            change_id="split-x-g2",
            kind="split",
            shard="y",
            generation_from=1,
            generation_to=2,
            epoch=1,
        )
        plane.control_storage.save_intent(foreign.encode(), "membership")
        assert plane.rebalancer.resume() is None
        assert not plane.rebalancer.pending()

    def test_stale_wal_replay_is_discarded(self):
        """A provider replaying a *completed* change's validly tagged WAL
        entry must not re-run it against today's ring (it would collide
        with the live membership and wedge every later change)."""
        plane, _ = make_stack(("shard-0", "shard-1"))
        plane.rebalancer.split("shard-2")  # g1 -> 2; WAL written, then cleared
        # The blob the provider copied meanwhile (the tag is deterministic).
        stale = MembershipIntent.seal(
            plane.signing_key,
            plane_id=plane.plane_id,
            change_id="split-shard-2-g2",
            kind="split",
            shard="shard-2",
            generation_from=1,
            generation_to=2,
            epoch=plane.authority.current_epoch,
        ).encode()
        plane.rebalancer.merge("shard-2")  # g2 -> 3: the copy is now stale
        plane.control_storage.save_intent(stale, "membership")
        assert plane.rebalancer.resume() is None
        assert plane.rebalancer.resumed == 0
        assert not plane.rebalancer.pending()
        assert plane.rebalancer.frozen == ()
        # The plane is not wedged: the next change goes through.
        assert plane.rebalancer.split("shard-3").completed
        assert plane.router.members == ("shard-0", "shard-1", "shard-3")
        assert plane.placement_problems() == []

    def test_overlapping_change_is_rejected(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        crash_at(plane.rebalancer, 2, lambda: plane.rebalancer.split("shard-2"))
        with pytest.raises(SimulationError):
            plane.rebalancer.split("shard-3")
        assert plane.rebalancer.resume().completed

    def test_invalid_changes_rejected_up_front(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        with pytest.raises(SimulationError):
            plane.rebalancer.split("shard-0")  # already a member
        with pytest.raises(SimulationError):
            plane.rebalancer.merge("shard-9")  # not a member
        assert not plane.rebalancer.pending()


class TestMembershipHistory:
    def test_changes_are_audited_in_order(self):
        plane, workload = make_stack(("shard-0", "shard-1"))
        plane.rebalancer.split("shard-2")
        workload.run(10)
        plane.rebalancer.merge("shard-0")
        assert plane.membership.changes() == [
            "split shard-2: gen 1->2 epoch 1 [begin]",
            "split shard-2: gen 1->2 epoch 1 [cutover]",
            "merge shard-0: gen 2->3 epoch 1 [begin]",
            "merge shard-0: gen 2->3 epoch 1 [cutover]",
        ]
        plane.control_log.verify(plane.signing_key.public_key())

    def test_split_retires_moved_tuples_from_old_owners(self):
        plane, _ = make_stack(("shard-0", "shard-1"))
        before = sum(
            instance.payload_count()
            for instance in plane.instances.values()
        )
        report = plane.rebalancer.split("shard-2")
        moved = sum(tuples for _, _, tuples in report.transfers)
        assert moved > 0
        assert report.retired_tuples == moved
        after = sum(
            instance.payload_count()
            for instance in plane.instances.values()
        )
        assert after == before  # moved, not duplicated or lost
