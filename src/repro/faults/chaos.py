"""The chaos family registry and the soak entry points.

A chaos *family* is one :class:`Family` entry: its name, the seeded
script builder (whose docstring is the one-line claim the family
proves), the deployment that runs the script (with that deployment's
constructor options) and, for families whose fault is injected through
the fault plane, a plan builder. ``build_scenario``, ``run_scenario``,
``FAMILIES``, ``FAMILY_DESCRIPTIONS``, ``python -m repro chaos
--list-families`` and the README's generated family table read nothing
else. Adding a family is adding one ``@chaos_family(...)`` script here;
adding an action is adding one ``do_<kind>`` method to a deployment
(:mod:`repro.faults.chaos_rote`, :mod:`repro.faults.chaos_shard`); the
run loop they share is :mod:`repro.faults.chaos_core`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.audit.rotation import KeyRotationCoordinator
from repro.audit.rote_replica import LIE_SHAPES
from repro.audit.wal import CheckpointedWal
from repro.errors import SimulationError
from repro.faults.chaos_core import (
    ChaosHarness,
    ChaosScenario,
    ScenarioVerdict,
)
from repro.faults.chaos_rote import (
    CHAOS_MAX_UNSEALED,
    INTRUDER_KINDS,
    RoteDeployment,
)
from repro.faults.chaos_shard import PlaneDeployment
from repro.faults.plan import FaultEvent, FaultPlan
from repro.shard.rebalance import Rebalancer


@dataclass(frozen=True)
class Family:
    """Everything the soak knows about one scenario family."""

    name: str
    #: The one-line claim the family proves: the script's docstring.
    description: str
    #: ``script(rng, f, n)`` -> the scenario's action tuples.
    script: Callable[[random.Random, int, int], list]
    deployment: type[ChaosHarness]
    #: Constructor options selecting the deployment variant.
    options: dict
    #: ``plan(rng, f, n)`` -> fault events, drawn after the script.
    plan: Callable[[random.Random, int, int], list] | None


#: Every chaos family, in soak order. The single source of truth: the
#: CLI prints it and the README's family table is generated from it (and
#: checked for drift in CI).
REGISTRY: dict[str, Family] = {}


def chaos_family(name: str, deployment: type[ChaosHarness], plan=None,
                 **options):
    """Register the decorated script builder as family ``name``; its
    docstring is the family's description."""

    def register(script):
        description = " ".join((script.__doc__ or "").split())
        REGISTRY[name] = Family(
            name, description, script, deployment, options, plan
        )
        return script

    return register


def crash_at_checkpoint(coordinator: type[CheckpointedWal]):
    """Plan builder: crash ``coordinator`` at one seeded WAL checkpoint."""

    def events(rng: random.Random, f: int, n: int) -> list:
        at = rng.randint(1, coordinator.checkpoints())
        return [FaultEvent(coordinator.FAULT_SITE, "crash", at=at)]

    return events


# ----------------------------------------------------------------------
# Scenario scripts
# ----------------------------------------------------------------------
#
# Actions are plain tuples ``(kind, *args)``; the deployment's
# ``do_<kind>`` method interprets (and documents) each one.


def _closing(rng: random.Random) -> list:
    """Common tail: recover, prove liveness and freshness."""
    return [
        ("reseal",),
        ("pairs", rng.randint(2, 4)),
        ("probe_stale",),
        ("verify",),
    ]


@chaos_family("partition-minority", RoteDeployment)
def _script_partition_minority(rng: random.Random, f: int, n: int) -> list:
    """Partition f replicas away; the quorum keeps serving throughout."""
    cut = tuple(sorted(rng.sample(range(n), k=f)))
    return [
        ("pairs", rng.randint(3, 5)),
        ("partition", cut),
        ("pairs", rng.randint(4, 6)),
        ("probe_stale",),
        ("heal",),
        *_closing(rng),
    ]


@chaos_family("partition-majority", RoteDeployment)
def _script_partition_majority(rng: random.Random, f: int, n: int) -> list:
    """Partition a majority away; pairs block explicitly, then heal."""
    keep = rng.sample(range(n), k=f)
    cut = tuple(sorted(set(range(n)) - set(keep)))
    return [
        ("pairs", rng.randint(3, 5)),
        ("partition", cut),
        # Enough pairs to exhaust the degraded buffer and hit the
        # explicit AuditBufferFullError blocking regime.
        ("pairs", CHAOS_MAX_UNSEALED + rng.randint(3, 5)),
        ("probe_stale",),
        ("heal",),
        *_closing(rng),
    ]


@chaos_family("restart-storm", RoteDeployment)
def _script_restart_storm(rng: random.Random, f: int, n: int) -> list:
    """Crash/restart waves, one replica at a time; the group confirms each
    restarter's counters before it serves again."""
    actions: list = [("pairs", rng.randint(2, 4))]
    for victim in rng.sample(range(n), k=min(3, n)):
        actions += [
            ("crash", victim),
            ("pairs", rng.randint(2, 4)),
            ("restart", victim),
            ("pairs", rng.randint(1, 3)),
        ]
    actions += [("probe_stale",), *_closing(rng)]
    return actions


def _plan_restart_mid_increment(rng: random.Random, f: int, n: int) -> list:
    victim = rng.randrange(n)
    # Visits are counted per quorum round, so both events land inside
    # the first batch of pairs: the crash fires between rounds of a
    # live operation, the restart a couple of rounds later.
    at = rng.randint(2, 5)
    return [
        FaultEvent("rote.round", "node_crash", at=at, params={"node": victim}),
        FaultEvent("rote.round", "node_recover",
                   at=at + rng.randint(1, 2), params={"node": victim}),
    ]


@chaos_family("restart-mid-increment", RoteDeployment,
              plan=_plan_restart_mid_increment)
def _script_restart_mid_increment(rng: random.Random, f: int, n: int) -> list:
    """Kill a replica between quorum rounds of a live counter increment."""
    # The crash/recover pair is scheduled on the rote.round fault site
    # (the family's plan), firing between quorum rounds of one operation.
    return [
        ("pairs", rng.randint(6, 9)),
        ("probe_stale",),
        ("pairs", rng.randint(3, 5)),
        *_closing(rng),
    ]


@chaos_family("byzantine", RoteDeployment)
def _script_byzantine(rng: random.Random, f: int, n: int) -> list:
    """Equivocating replicas lie about counters; quorum certification
    holds."""
    liars = rng.sample(range(n), k=f)
    shapes = [rng.choice(LIE_SHAPES) for _ in liars]
    actions: list = [("pairs", rng.randint(2, 4))]
    actions += [("lie", liar, shape) for liar, shape in zip(liars, shapes)]
    actions += [
        ("pairs", rng.randint(4, 6)),
        ("probe_stale",),
        # Change the lie mid-run: a different adversary, same replicas.
        *[("lie", liar, rng.choice(LIE_SHAPES)) for liar in liars],
        ("pairs", rng.randint(3, 5)),
        *[("honest", liar) for liar in liars],
        *_closing(rng),
    ]
    return actions


@chaos_family("message-storm", RoteDeployment)
def _script_message_storm(rng: random.Random, f: int, n: int) -> list:
    """Loss, duplication and reorder on every link; retries stay exact."""
    return [
        ("pairs", rng.randint(2, 4)),
        ("storm_on", round(rng.uniform(0.15, 0.3), 2),
         round(rng.uniform(0.1, 0.25), 2), round(rng.uniform(0.2, 0.35), 2)),
        ("pairs", rng.randint(5, 8)),
        ("storm_off",),
        ("probe_stale",),
        *_closing(rng),
    ]


@chaos_family("kitchen-sink", RoteDeployment)
def _script_kitchen_sink(rng: random.Random, f: int, n: int) -> list:
    """Partitions, restarts, lies and storms stacked in one scenario."""
    liar = rng.randrange(n)
    victim = rng.choice([i for i in range(n) if i != liar])
    cut = (rng.choice([i for i in range(n) if i not in (liar, victim)]),)
    return [
        ("pairs", rng.randint(2, 3)),
        ("lie", liar, rng.choice(LIE_SHAPES)),
        ("pairs", rng.randint(2, 3)),
        ("crash", victim),
        ("pairs", rng.randint(1, 2)),
        ("restart", victim),
        ("partition", cut),
        ("pairs", rng.randint(2, 4)),
        ("heal",),
        ("storm_on", 0.2, 0.15, 0.25),
        ("pairs", rng.randint(2, 4)),
        ("storm_off",),
        ("probe_stale",),
        ("honest", liar),
        *_closing(rng),
    ]


@chaos_family("rote-rollback-restart", RoteDeployment)
def _script_rote_rollback_restart(rng: random.Random, f: int, n: int) -> list:
    """Power-cycle f replicas or the whole group, then restart LibSEAL from
    a stale snapshot with an empty client cache; it never resumes clean."""
    # Replicas keep their counters only in enclave memory, so the host
    # has nothing of theirs to roll back. f power-cycled replicas are
    # confirmed through the group and the stale snapshot is
    # rollback-detected; a whole group can never be confirmed again, and
    # recovery ends freshness-unverifiable.
    victims = tuple(sorted(rng.sample(range(n), k=rng.choice((f, n)))))
    return [
        ("pairs", rng.randint(3, 5)),
        ("keep_snapshot",),
        ("pairs", rng.randint(2, 4)),
        ("power_cycle", victims),
        ("recover_stale",),
        *_closing(rng),
    ]


@chaos_family("rotation-crash", RoteDeployment, sealed_at_rest=True,
              plan=crash_at_checkpoint(KeyRotationCoordinator))
def _script_rotation_crash(rng: random.Random, f: int, n: int) -> list:
    """Crash the key-rotation WAL at a random checkpoint; replay
    converges."""
    # The crash is scheduled on the rotation.step fault site (the
    # family's plan): it fires between two steps of the coordinator's WAL
    # sequence, and the resume must replay to exactly one active epoch.
    return [
        ("pairs", rng.randint(3, 5)),
        ("rotate", "scheduled"),
        ("rotation_resume",),
        ("pairs", rng.randint(2, 4)),
        ("probe_stale",),
        ("check_epoch",),
        *_closing(rng),
    ]


@chaos_family("rotation-stale-replica", RoteDeployment, sealed_at_rest=True)
def _script_rotation_stale_replica(rng: random.Random, f: int, n: int) -> list:
    """Strand f+1 replicas on a pre-rotation build; degrade, then retire."""
    # f+1 replicas stay on a pre-rotation enclave build: the quorum is
    # unreachable for the new epoch, so the client must degrade to
    # freshness-unverifiable — never rollback-detected, never silent
    # acceptance of old-epoch material. Upgrading the stragglers and
    # replaying the rotation WAL then converges the group.
    stuck = tuple(sorted(rng.sample(range(n), k=f + 1)))
    return [
        ("pairs", rng.randint(3, 5)),
        *[("pin", i) for i in stuck],
        ("rotate", "scheduled"),
        ("pairs", rng.randint(2, 3)),
        ("probe_recover", "freshness-unverifiable"),
        ("force_retire",),
        ("probe_recover", "retired-epoch"),
        *[("upgrade", i) for i in stuck],
        ("rotation_resume",),
        ("check_epoch",),
        *_closing(rng),
    ]


@chaos_family("rotation-byzantine-replay", RoteDeployment,
              sealed_at_rest=True)
def _script_rotation_byzantine_replay(rng: random.Random, f: int, n: int) -> list:
    """Replay retired-epoch counter claims; every one is rejected."""
    # Liars whose reply material is frozen pre-rotation (drop_writes
    # keeps their history on the old epoch) replay pre-rotation
    # attestations after the old group key retires: every such HMAC must
    # be rejected by the quorum logic (counted, never trusted).
    liars = rng.sample(range(n), k=f)
    shapes = [rng.choice(("stale_echo", "under_report")) for _ in liars]
    return [
        ("pairs", rng.randint(4, 6)),
        *[("lie", liar, shape) for liar, shape in zip(liars, shapes)],
        ("pairs", rng.randint(2, 3)),
        ("rotate", "suspected-compromise"),
        ("force_retire",),
        ("pairs", rng.randint(3, 5)),
        ("check_replay",),
        ("probe_stale",),
        *[("honest", liar) for liar in liars],
        *_closing(rng),
    ]


@chaos_family("attest-forged-join", RoteDeployment, attested=True)
def _script_attest_forged_join(rng: random.Random, f: int, n: int) -> list:
    """Forged/replayed join evidence probes every admission gate."""
    # An un-attested intruder (rogue platform, tampered quotes, replayed
    # or relabeled evidence) hammers the group's join path, then probes
    # catch-up directly — including a poisoned CatchupReply whose
    # attestation is MAC-valid (modelling a leaked group key): admission,
    # not the MAC, must be what keeps it out.
    kinds = list(INTRUDER_KINDS)
    rng.shuffle(kinds)
    actions: list = [("pairs", rng.randint(2, 4))]
    for kind in kinds[: rng.randint(2, len(kinds))]:
        actions += [("intrude", kind), ("pairs", rng.randint(1, 3))]
    actions += [
        ("intrude_catchup",),
        ("pairs", rng.randint(1, 2)),
        ("check_intruder",),
        ("probe_stale",),
        *_closing(rng),
    ]
    return actions


@chaos_family("attest-outage-restart", RoteDeployment, attested=True)
def _script_attest_outage_restart(rng: random.Random, f: int, n: int) -> list:
    """Attestation outage during a rejoin; catch-up stays fail-closed."""
    # The attestation service dies, then a replica crashes and restarts
    # behind it, with the plane clock advanced past the verdict-cache
    # window: the rejoiner cannot re-attest anyone, so it must drop every
    # catch-up reply un-adopted (degraded availability, zero unverified
    # admission) while the remaining quorum keeps the service alive.
    # Once the service is restored, the next client request the rejoiner
    # drops makes it re-attest and re-send its catch-up: the group
    # confirms it without another restart.
    victim = rng.randrange(n)
    return [
        ("pairs", rng.randint(2, 4)),
        ("attest_outage",),
        ("crash", victim),
        ("clock_advance", round(rng.uniform(40.0, 90.0), 1)),
        ("restart", victim),
        ("pairs", rng.randint(2, 4)),
        ("check_outage", victim),
        ("attest_restore",),
        ("pairs", rng.randint(1, 3)),
        ("probe_stale",),
        *_closing(rng),
    ]


@chaos_family("attest-revoked-tcb", RoteDeployment, attested=True)
def _script_attest_revoked_tcb(rng: random.Random, f: int, n: int) -> list:
    """TCB revocation mid-run evicts and discounts the revoked replica."""
    # A TCB advisory revokes one replica's platform mid-traffic. The next
    # operation's revalidation sweep must evict it everywhere (client and
    # peers), its still-arriving replies must be discounted rather than
    # trusted, and the group must keep serving on the remaining quorum.
    victim = rng.randrange(n)
    return [
        ("pairs", rng.randint(3, 5)),
        ("tcb_revoke", victim),
        ("pairs", rng.randint(3, 5)),
        ("check_revoked", victim),
        ("pairs", rng.randint(1, 3)),
        ("probe_stale",),
        *_closing(rng),
    ]


@chaos_family("shard-split-crash", PlaneDeployment,
              plan=crash_at_checkpoint(Rebalancer))
def _script_shard_split_crash(rng: random.Random, f: int, n: int) -> list:
    """Crash a shard split at every rebalance checkpoint; WAL replay
    converges to one owner per range."""
    # A split crashes at a random rebalance checkpoint (the plan injects
    # it); traffic keeps flowing into the half-done change, then the WAL
    # replays and the plane must converge to one owner per range.
    return [
        ("pairs", rng.randint(25, 35)),
        ("split", "shard-2"),
        ("pairs", rng.randint(10, 18)),
        ("resume",),
        ("pairs", rng.randint(8, 12)),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("verify_all",),
    ]


@chaos_family("shard-merge-stale", PlaneDeployment,
              shards=("shard-0", "shard-1", "shard-2"))
def _script_shard_merge_stale(rng: random.Random, f: int, n: int) -> list:
    """Merge a shard stranded on a retired epoch; the change fails closed,
    degrades, and never rolls back claims."""
    # The merge victim's counter group is stranded on a retired epoch:
    # its range freshness is unprovable, so the merge must fail closed
    # (WAL held, ranges frozen, no rollback claim) until the replicas
    # are upgraded and the change replays.
    return [
        ("pairs", rng.randint(30, 40)),
        ("pin_shard", "shard-1"),
        ("rotate_epoch", "suspected-exposure"),
        ("merge_failclosed", "shard-1"),
        ("pairs", rng.randint(4, 8)),
        ("upgrade_shard", "shard-1"),
        ("resume",),
        ("pairs", rng.randint(8, 12)),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("check_failclosed",),
        ("verify_all",),
    ]


@chaos_family("shard-rebalance-byzantine", PlaneDeployment)
def _script_shard_rebalance_byzantine(rng: random.Random, f: int, n: int) -> list:
    """An old owner keeps answering for a migrated range and replays its
    transfer; both are dropped and counted."""
    # After a completed split, the old owner keeps claiming its pre-split
    # ownership in scatter replies and replays its range transfer. The
    # gather layer must drop and count the stale claims, the import
    # marker must drop the replays, and honesty must restore a clean
    # merged verdict.
    return [
        ("pairs", rng.randint(30, 40)),
        ("split", "shard-2"),
        ("stale_claim", "shard-0"),
        ("replay_transfers", "shard-0"),
        ("scatter_check", "dropped"),
        ("pairs", rng.randint(8, 12)),
        ("honest", "shard-0"),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("check_byzantine",),
        ("verify_all",),
    ]


FAMILIES = tuple(REGISTRY)

FAMILY_DESCRIPTIONS = {
    name: entry.description for name, entry in REGISTRY.items()
}


def family_table_markdown() -> str:
    """The README's chaos-family table, generated so it cannot drift."""
    lines = ["| Family | What it proves |", "| --- | --- |"]
    for name, description in FAMILY_DESCRIPTIONS.items():
        lines.append(f"| `{name}` | {description} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Soak entry points
# ----------------------------------------------------------------------


def build_scenario(family: str, seed: int, f: int = 1) -> ChaosScenario:
    if family not in REGISTRY:
        raise SimulationError(f"unknown chaos family {family!r}; one of {FAMILIES}")
    entry = REGISTRY[family]
    rng = random.Random(f"chaos-{family}-{seed}")
    n = 3 * f + 1
    actions = tuple(entry.script(rng, f, n))
    plan = None
    if entry.plan is not None:
        events = entry.plan(rng, f, n)
        plan = FaultPlan(events, seed=rng.randint(0, 2**31), scenario=family)
    return ChaosScenario(family=family, seed=seed, f=f, actions=actions, plan=plan)


def build_harness(family: str, seed: int, f: int = 1) -> ChaosHarness:
    """The family's deployment, built around one seeded scenario."""
    scenario = build_scenario(family, seed, f=f)
    entry = REGISTRY[family]
    return entry.deployment(scenario, **entry.options)


def run_scenario(family: str, seed: int, f: int = 1) -> ScenarioVerdict:
    """Build and run one seeded scenario."""
    return build_harness(family, seed, f=f).run()


def run_soak(
    families: tuple[str, ...] = FAMILIES,
    seeds_per_family: int = 5,
    seed_base: int = 0,
    f: int = 1,
) -> list[ScenarioVerdict]:
    """The full soak: every family × ``seeds_per_family`` seeds."""
    verdicts = []
    for family in families:
        for offset in range(seeds_per_family):
            verdicts.append(run_scenario(family, seed_base + offset, f=f))
    return verdicts
