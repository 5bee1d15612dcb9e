"""The chaos soak: safety and liveness of the distributed ROTE audit path.

Unlike :mod:`tests.faults.test_chaos` (random fault *plans* against the
storage/recovery path), this suite drives the message-passing replica
group and the sharded plane themselves — partitions, restarts, Byzantine
repliers, message storms, crashed rotations and rebalances over the
simulated network — and checks the harness's built-in safety/liveness
oracle, the verdicts pinned at the last commit that changed them, and
trace-digest determinism.

Every (family, seed) scenario of the default soak runs at most once per
session: the module-scoped ``soak`` fixture keeps each finished harness,
so the whole-soak tests, the per-family tests and the verdict-shape
tests all look at the same runs.
"""

import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.faults.chaos import (
    FAMILIES,
    FAMILY_DESCRIPTIONS,
    REGISTRY,
    build_harness,
    build_scenario,
    family_table_markdown,
    run_scenario,
)
from repro.faults.chaos_core import ChaosScenario
from repro.faults.plan import FaultEvent, FaultPlan

pytestmark = pytest.mark.faults

#: The default soak's seeds (``python -m repro chaos --seeds 5``).
SEEDS = range(5)

#: ``python -m repro chaos --seeds 5 --json <this file>`` as written at
#: the last commit that changed a verdict or a trace on purpose.
GOLDEN = json.loads(
    Path(__file__).with_name("golden_chaos_verdicts.json").read_text()
)["scenarios"]


class SoakRuns:
    """The default soak, each scenario run on first use and kept."""

    def __init__(self):
        self._runs = {}

    def run(self, family, seed):
        """The finished harness and its verdict."""
        if (family, seed) not in self._runs:
            harness = build_harness(family, seed)
            self._runs[family, seed] = (harness, harness.run())
        return self._runs[family, seed]

    def passing(self, family, seed):
        """The finished harness of a scenario that must have passed."""
        harness, verdict = self.run(family, seed)
        assert verdict.ok, verdict.violations
        return harness

    def verdict(self, family, seed):
        return self.run(family, seed)[1]

    def verdicts(self, families=FAMILIES):
        return [self.verdict(f, s) for f in families for s in SEEDS]


@pytest.fixture(scope="module")
def soak():
    return SoakRuns()


class TestFamilyTable:
    """The README's chaos-family table is generated, never hand-edited."""

    def test_readme_embeds_the_generated_table(self):
        readme = Path(__file__).resolve().parents[2] / "README.md"
        table = family_table_markdown().strip()
        assert table in readme.read_text(encoding="utf-8"), (
            "README.md's chaos-family table has drifted from the family "
            "registry: paste the output of "
            "repro.faults.chaos.family_table_markdown() back in"
        )

    def test_table_covers_every_family_exactly_once(self):
        table = family_table_markdown()
        for family in FAMILIES:
            assert table.count(f"`{family}`") == 1

    def test_every_family_has_a_description(self):
        assert tuple(FAMILY_DESCRIPTIONS) == FAMILIES == tuple(REGISTRY)
        assert all(desc.strip() for desc in FAMILY_DESCRIPTIONS.values())


class TestSoak:
    def test_full_soak_has_no_oracle_violations(self, soak):
        verdicts = soak.verdicts()
        assert len(verdicts) >= 25  # acceptance floor
        bad = [v for v in verdicts if not v.ok]
        assert bad == [], [(v.family, v.seed, v.violations) for v in bad]
        # Every family must have produced real audited traffic.
        assert all(v.pairs_ok > 0 for v in verdicts)

    def test_soak_is_not_vacuous(self, soak):
        """The faults actually bite: partitions block, probes reject."""
        majority = soak.verdicts(("partition-majority",))
        assert any(v.pairs_blocked > 0 for v in majority)
        assert any(v.recovered_in is not None for v in majority)
        assert any(v.stale_probes > 0 for v in soak.verdicts(("byzantine",)))
        assert any(
            v.network["lost"] > 0 for v in soak.verdicts(("message-storm",))
        )

    def test_verdicts_match_the_committed_golden(self, soak):
        """The cross-commit pin ``--check-determinism`` never was: every
        verdict, counter, network tally and trace digest equals the
        committed record, scenario for scenario."""
        records = [v.as_dict() for v in soak.verdicts()]
        assert [r["scenario"] for r in records] == [
            g["scenario"] for g in GOLDEN
        ]
        for record, golden in zip(records, GOLDEN):
            assert record == golden


class TestRotationFamilies:
    """The three rotation families exercise what they claim to.

    The harness itself refuses to pass vacuously — a planned crash that
    never fires and a replay that rejects nothing are violations — so
    these tests check what only the finished deployment can show.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rotation_crash_fires_and_replays(self, soak, seed):
        harness = soak.passing("rotation-crash", seed)
        heads = {event[:2] for event in harness.trace}
        # The WAL the injected crash left behind was replayed, and the
        # rotation happened exactly once.
        assert ("rotation_resume", "replayed") in heads
        assert harness.cluster.authority.rotations == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stale_replica_degrades_then_retires(self, soak, seed):
        harness = soak.passing("rotation-stale-replica", seed)
        probes = [
            event[1] for event in harness.trace if event[0] == "probe_recover"
        ]
        # While the quorum is stranded: an availability fault, never a
        # rollback claim; after forced retirement: fail-closed refusal.
        assert probes == ["freshness-unverifiable", "retired-epoch"]
        assert all(
            replica.epoch == harness.cluster.authority.current_epoch
            for replica in harness.cluster.nodes
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byzantine_replay_is_rejected(self, soak, seed):
        harness = soak.passing("rotation-byzantine-replay", seed)
        assert any(event[0] == "check_replay" for event in harness.trace)


class TestRollbackRestartFamily:
    """``rote-rollback-restart`` shows both sides of the confirmation rule.

    f power-cycled replicas are confirmed through the group, so the stale
    snapshot is rollback-detected; a power-cycled whole group is never
    confirmed again, so recovery ends freshness-unverifiable.
    """

    @staticmethod
    def outcomes(harness):
        return [e[1] for e in harness.trace if e[0] == "recover_stale"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stale_snapshot_never_resumes_clean(self, soak, seed):
        harness = soak.passing("rote-rollback-restart", seed)
        (cycle,) = [e for e in harness.trace if e[0] == "power_cycle"]
        expected = (
            "freshness-unverifiable"
            if len(cycle[1]) > harness.cluster.f
            else "rollback-detected"
        )
        assert self.outcomes(harness) == [expected]

    def test_both_sides_of_the_rule_run(self, soak):
        seen = {
            outcome
            for seed in SEEDS
            for outcome in self.outcomes(soak.passing("rote-rollback-restart", seed))
        }
        assert seen == {"freshness-unverifiable", "rollback-detected"}


class TestAttestationFamilies:
    """The three attestation families exercise what they claim to.

    The in-harness ``check_intruder`` / ``check_outage`` /
    ``check_revoked`` actions count the rejections, refusals and
    evictions; these tests check that those actions ran and what the
    group looks like once the script has ended.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forged_joins_rejected_at_every_gate(self, soak, seed):
        harness = soak.passing("attest-forged-join", seed)
        heads = {event[0] for event in harness.trace}
        assert "intrude" in heads and "intrude_catchup" in heads
        assert "check_intruder" in heads
        # Multiple tamper kinds ran (shuffled per seed, at least two).
        kinds = {e[1] for e in harness.trace if e[0] == "intrude"}
        assert len(kinds) >= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outage_rejoin_degrades_but_never_admits(self, soak, seed):
        harness = soak.passing("attest-outage-restart", seed)
        heads = {event[0] for event in harness.trace}
        assert "attest_outage" in heads and "attest_restore" in heads
        assert "check_outage" in heads
        # After restoration the group healed without another restart: the
        # victim's next dropped client request re-attested it (full
        # mutual admission) and re-sent its catch-up, which confirmed it.
        outage_checks = [e for e in harness.trace if e[0] == "check_outage"]
        victim = harness.cluster.nodes[outage_checks[0][1]]
        assert victim.admission.admitted_addresses() != ()
        assert victim.restarts == 1 and victim.confirmed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_revoked_platform_evicted_mid_traffic(self, soak, seed):
        harness = soak.passing("attest-revoked-tcb", seed)
        checks = [e for e in harness.trace if e[0] == "check_revoked"]
        assert checks
        # Still evicted once the script has ended.
        victim = harness.cluster.nodes[checks[0][1]]
        assert not harness.cluster.admission.is_admitted(victim.address)


class TestShardFamilies:
    """The three shard families exercise what they claim to.

    A split whose planned crash never fires, a replay that finds no WAL,
    a stale merge that does not fail closed and a Byzantine owner whose
    claims are never dropped are all violations inside the harness;
    these tests check the ring and the logs the run leaves behind.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_crash_fires_and_replays(self, soak, seed):
        harness = soak.passing("shard-split-crash", seed)
        # The replay completed the crashed change exactly once...
        changes = harness.plane.membership.changes()
        assert sum(1 for c in changes if "[cutover]" in c) == 1
        # ...and the change was non-vacuous: tuples really moved.
        assert sum(
            instance.tuples_imported
            for instance in harness.plane.instances.values()
        ) > 0
        assert harness.plane.router.members == (
            "shard-0", "shard-1", "shard-2",
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_stale_fails_closed_then_recovers(self, soak, seed):
        harness = soak.passing("shard-merge-stale", seed)
        assert any(e[0] == "check_failclosed" for e in harness.trace)
        # After the upgrade the replay converged the ring.
        assert harness.plane.router.members == ("shard-0", "shard-2")
        assert "shard-1" not in harness.plane.instances

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byzantine_old_owner_is_dropped_and_counted(self, soak, seed):
        harness = soak.passing("shard-rebalance-byzantine", seed)
        assert any(e[0] == "check_byzantine" for e in harness.trace)
        # The stale ownership claim was dropped from the merged verdict,
        # and honesty restored a clean one.
        expects = [e[1:3] for e in harness.trace if e[0] == "scatter_check"]
        assert ("dropped", False) in expects
        assert ("ok", True) in expects
        assert harness.plane.pair_accounting() == []


class TestPlannedFaults:
    """A plan-driven family is only non-vacuous if its plan fires."""

    PLANNED = [name for name, entry in REGISTRY.items() if entry.plan]

    def test_the_plan_driven_families_are_the_known_three(self):
        assert self.PLANNED == [
            "restart-mid-increment", "rotation-crash", "shard-split-crash",
        ]

    @pytest.mark.parametrize("family", PLANNED)
    def test_every_planned_event_fired(self, soak, family):
        for seed in SEEDS:
            harness = soak.passing(family, seed)
            fired = [e for e in harness.trace if e[0] == "plan_fired"]
            assert len(fired) == len(harness.scenario.plan.events) > 0

    @pytest.mark.parametrize("family", PLANNED)
    def test_a_planned_fault_that_never_fires_is_a_violation(self, family):
        harness = build_harness(family, seed=0)
        site = harness.scenario.plan.events[0].site
        harness.scenario.plan = FaultPlan(
            [FaultEvent(site, "crash", at=10**6)], scenario=family
        )
        verdict = harness.run()
        assert not verdict.ok
        assert any(
            v == f"planned fault never fired: {site}#1000000:crash"
            for v in verdict.violations
        )


class TestVocabulary:
    """Scripts and deployments agree on the action vocabulary."""

    @staticmethod
    def _handlers(deployment):
        return {
            name[len("do_"):] for name in dir(deployment)
            if name.startswith("do_")
        }

    @staticmethod
    def _emitted(family):
        return {
            action[0]
            for seed in SEEDS
            for action in build_scenario(family, seed).actions
        }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_emitted_action_has_a_handler(self, family):
        handlers = self._handlers(REGISTRY[family].deployment)
        assert self._emitted(family) <= handlers

    def test_every_handler_is_emitted_by_some_script(self):
        """A documented action no script uses is dead vocabulary."""
        for deployment in {entry.deployment for entry in REGISTRY.values()}:
            emitted = set()
            for family, entry in REGISTRY.items():
                if entry.deployment is deployment:
                    emitted |= self._emitted(family)
            assert self._handlers(deployment) == emitted, deployment.__name__

    def test_every_handler_documents_its_action_tuple(self):
        for deployment in {entry.deployment for entry in REGISTRY.values()}:
            for kind in self._handlers(deployment):
                doc = getattr(deployment, f"do_{kind}").__doc__ or ""
                assert doc.startswith(f'``("{kind}",'), (deployment, kind)

    @pytest.mark.parametrize("family", ["kitchen-sink", "shard-merge-stale"])
    def test_unknown_action_is_rejected(self, family):
        harness = build_harness(family, seed=0)
        harness.scenario = ChaosScenario(
            family=family, seed=0, actions=(("merge", "shard-1"),)
        )
        with pytest.raises(SimulationError, match="unknown chaos action"):
            harness.run()


class TestFaultTolerance:
    """``--f`` reaches the plane deployment too, not only the ROTE one."""

    @pytest.mark.parametrize("f", [1, 2])
    def test_every_shard_group_has_3f_plus_1_replicas(self, f):
        plane = build_harness("shard-split-crash", seed=0, f=f).plane
        assert plane.f == f
        assert [
            instance.cluster.n for instance in plane.instances.values()
        ] == [3 * f + 1] * 2


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_seed_same_trace_digest(self, soak, family):
        first = soak.verdict(family, 0)
        again = run_scenario(family, seed=0)
        assert first.trace_digest == again.trace_digest
        assert first.as_dict() == again.as_dict()

    def test_different_seeds_diverge(self, soak):
        digests = {
            soak.verdict("kitchen-sink", seed).trace_digest for seed in range(3)
        }
        assert len(digests) == 3

    def test_build_scenario_is_pure(self):
        a = build_scenario("kitchen-sink", seed=4)
        b = build_scenario("kitchen-sink", seed=4)
        assert a.actions == b.actions


class TestVerdictShape:
    def test_as_dict_is_json_shaped(self, soak):
        obj = soak.verdict("partition-minority", 1).as_dict()
        assert obj["family"] == "partition-minority"
        assert obj["ok"] is True
        assert obj["violations"] == []
        assert isinstance(obj["trace_digest"], str) and len(obj["trace_digest"]) == 64
        assert obj["network"]["sent"] > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(SimulationError):
            build_scenario("meteor-strike", seed=0)
