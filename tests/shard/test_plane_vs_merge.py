"""Plane-versus-merge differential: are the messaging invariants local
to the routing key?

``ShardPlane.check_invariants`` unions per-shard verdicts; ``merge_logs``
+ ``check_merged_invariants`` (§3.2) verifies every shard's log, merges
them into one database and checks that. If an invariant ever needed
tuples from two shards, the union would miss what the merge sees. The two
must report the same violation count per invariant — for honest traffic,
under attack, and after a split has moved ranges between shards.
"""

import os

import pytest

from repro.audit import check_merged_invariants, merge_logs
from repro.shard import ShardPlane
from repro.ssm import MessagingSSM
from repro.workloads import MessagingWorkload

#: Tier-1 runs one seed; the nightly widens the range.
SEEDS = range(int(os.environ.get("REPRO_DIFFERENTIAL_SEEDS", "1")))


def build(seed: int):
    plane = ShardPlane(shards=("shard-0", "shard-1", "shard-2"), seed=seed)
    workload = MessagingWorkload(plane, channels=12, members=3, seed=seed)
    workload.run(60)
    return plane, workload


def union_counts(plane: ShardPlane) -> dict[str, int]:
    verdict = plane.check_invariants(force_full=True)
    assert not verdict.unchecked and not verdict.dropped_stale
    return {name: len(rows) for name, rows in verdict.outcome.violations.items()}


def merged_counts(plane: ShardPlane) -> dict[str, int]:
    instances = list(plane.instances.values())
    merged = merge_logs(
        [instance.libseal.audit_log for instance in instances],
        [instance.signing_key.public_key() for instance in instances],
        MessagingSSM(),
    )
    assert merged.tuple_count == plane.tuples_routed
    violations = check_merged_invariants(merged, MessagingSSM())
    return {name: len(rows) for name, rows in violations.items()}


def attack(workload: MessagingWorkload, kind: str) -> None:
    channel = workload.channels[0]
    seq = workload.post_once(channel)
    if kind == "honest":
        return
    server = workload.service.server
    if kind == "drop_message":
        server.attack_drop_message(channel, seq)
    else:
        server.attack_rewrite_message(channel, seq, "FORGED")
    workload.fetch_once(channel, workload.members[1])


EXPECTED = {
    "honest": {},
    "drop_message": {"delivery_completeness": 1},
    "rewrite_message": {"message_soundness": 1},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_union_of_shard_verdicts_equals_merged_verdict(kind, seed):
    plane, workload = build(seed)
    attack(workload, kind)
    union = union_counts(plane)
    assert union == merged_counts(plane)
    assert {name: n for name, n in union.items() if n} == EXPECTED[kind]


@pytest.mark.parametrize("seed", SEEDS)
def test_agreement_survives_a_split(seed):
    plane, workload = build(seed)
    attack(workload, "drop_message")
    plane.rebalancer.split("shard-3")
    workload.run(30)
    attack(workload, "rewrite_message")
    assert plane.placement_problems() == [] and plane.pair_accounting() == []
    union = union_counts(plane)
    assert union == merged_counts(plane)
    # Later fetches of the dropped message add rows, so only presence
    # is seed-independent here.
    assert {name for name, n in union.items() if n} == {
        "delivery_completeness",
        "message_soundness",
    }
