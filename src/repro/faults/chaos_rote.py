"""The ROTE deployment of the chaos harness: a LibSeal on a replica group.

Drives a real :class:`~repro.core.LibSeal` (with its
:class:`~repro.audit.log.AuditLog` and a message-passing
:class:`~repro.audit.rote.RoteCluster` on a
:class:`~repro.sim.network.SimNetwork`, optionally attested and/or with
its log sealed at rest) through the failure modes a production
deployment faces — majority/minority partitions, replica crashes and
restarts (including mid-increment, via the fault plane), Byzantine
repliers with configurable lie shapes, and message storms — while a
safety/liveness oracle checks after every step that:

- **counter monotonicity**: the signed log head's counter value never
  moves backwards;
- **no stale head accepted**: a retained earlier log snapshot, replayed
  through ``AuditLog.load``, is rejected with ``RollbackError`` whenever
  the quorum is reachable, and a LibSEAL restarted from one never resumes
  clean — not even after the replica group itself lost power;
- **error discipline**: ``RollbackError``/``IntegrityError`` appear only
  on genuine integrity evidence (never injected here, so never expected);
  availability faults surface as ``QuorumUnavailableError`` degradation
  or an explicit ``AuditBufferFullError`` block — and only while the
  quorum is actually unreachable (or a storm is raging);
- **bounded liveness**: after the last disruption heals, sealing
  recovers within :data:`LIVENESS_BOUND` reseal attempts and the final
  full verification passes with the live counter equal to the head.
"""

from __future__ import annotations

import copy

from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage
from repro.audit.recovery import DETECTED_OUTCOMES, recover_log
from repro.audit.rotation import KeyRotationCoordinator, stranded_blobs
from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import (
    CatchupReply,
    CatchupRequest,
    CounterAttestation,
    JoinRequest,
)
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core.libseal import LibSeal, LibSealConfig
from repro.errors import (
    AuditBufferFullError,
    IntegrityError,
    QuorumUnavailableError,
    RollbackError,
    SimulationError,
)
from repro.faults.chaos_core import (
    ChaosHarness,
    ChaosScenario,
    pin_replicas,
    upgrade_replicas,
)
from repro.faults.plan import InjectedCrash
from repro.sgx.ratls import (
    BINDING_ROTE_JOIN,
    AttestationEvidence,
    AttestationPlane,
    make_node_enclave,
    report_binding,
)
from repro.sgx.attestation import Quote
from repro.sgx.sealing import EpochState, SigningAuthority
from repro.sim.network import SimNetwork
from repro.ssm.messaging import MessagingSSM
from repro.workloads.messaging_traffic import MessagingWorkload

#: Attestation-plane knobs for an attested deployment: evidence stays
#: fresh for minutes (joins re-quote anyway), while cached verification
#: verdicts expire quickly enough for one scripted clock advance to push
#: an outage past the degraded-serving window.
CHAOS_ATTEST_FRESHNESS = 600.0
CHAOS_ATTEST_CACHE_TTL = 30.0

#: Counter value the forged-join intruder tries to smuggle in: high
#: enough that any adoption anywhere is unmistakable.
INTRUDER_POISON = 1 << 40

#: Evidence tampers the forged-join intruder cycles through.
INTRUDER_KINDS = ("rogue", "relabel", "epoch_relabel", "replay")

#: Reseal attempts allowed after every fault healed before the oracle
#: calls the run a liveness violation.
LIVENESS_BOUND = 4

#: Degraded-buffer bound used by chaos runs: small, so partition-majority
#: scenarios actually reach the explicit pair-blocking regime.
CHAOS_MAX_UNSEALED = 8

#: Snapshots retained per run as stale-head probe material.
SNAPSHOT_LIMIT = 4


class RoteDeployment(ChaosHarness):
    """A LibSeal over a message-passing ROTE group, judged every step."""

    PARTITION_NAME = "wan-split"

    def __init__(
        self,
        scenario: ChaosScenario,
        attested: bool = False,
        sealed_at_rest: bool = False,
    ):
        super().__init__(scenario)
        self.network = SimNetwork(
            seed=scenario.seed, latency_steps=1, jitter_steps=1
        )
        # An attested cluster admits every member by verified
        # quote-backed evidence, through a plane whose service/clock the
        # scenario script can break.
        self.attested = attested
        if self.attested:
            authority = SigningAuthority("rote-authority-chaos")
            self.plane = AttestationPlane(
                authority,
                freshness_window=CHAOS_ATTEST_FRESHNESS,
                cache_ttl=CHAOS_ATTEST_CACHE_TTL,
            )
        else:
            authority = None
            self.plane = None
        self.cluster = RoteCluster(
            f=scenario.f,
            network=self.network,
            authority=authority,
            cluster_id="chaos",
            seed=scenario.seed,
            attestation=self.plane,
        )
        self.config = LibSealConfig(
            flush_each_pair=True,
            rote_f=scenario.f,
            log_id=f"chaos-{scenario.family}-{scenario.seed}",
            max_unsealed_pairs=CHAOS_MAX_UNSEALED,
        )
        # The sealed-at-rest log path is what key rotation must migrate
        # (the re-seal pass moves the encrypted snapshot, and a
        # retired-epoch blob must fail closed at recovery); every other
        # deployment keeps the plain in-memory snapshot.
        self.epoch_aware = sealed_at_rest
        self.storage_inner = InMemoryStorage()
        if self.epoch_aware:
            self.log_enclave = make_log_enclave(self.cluster.authority)
            storage = SealedLogStorage(self.storage_inner, self.log_enclave)
        else:
            self.log_enclave = None
            storage = self.storage_inner
        self.libseal = LibSeal(
            MessagingSSM(),
            config=self.config,
            rote=self.cluster,
            storage=storage,
        )
        self.coordinator = KeyRotationCoordinator(self.libseal)
        # Posts only (fetch_ratio=0): a pair blocked by the audit buffer
        # still went through the service, and fetch-driven invariants
        # would then flag that divergence as a service violation — real,
        # but not the failure class this soak injects.
        self.workload = MessagingWorkload(
            self.libseal, channels=1, members=2, fetch_ratio=0.0,
            seed=scenario.seed,
        )
        self.partitioned: set[int] = set()
        self.storm = False
        #: Set once the script power-cycled more than f replicas at once:
        #: no replica can be confirmed again, and liveness is not owed.
        self.group_lost = False
        self._kept: InMemoryStorage | None = None
        #: Replicas whose platform TCB the script revoked: evicted from
        #: the group, so unavailable for quorum purposes.
        self.revoked: set[int] = set()
        self.intruder_address = "chaos/intruder"
        self._intruder_registered = False
        self.stale_probes = 0
        self._head_max = 0
        self._snapshots: list[tuple[int, bytes]] = []

    # -- oracle helpers --------------------------------------------------

    def _epoch_stranded(self, i: int) -> bool:
        """A replica pinned on a pre-rotation build is silent for every
        current-epoch request — an availability fault, by design."""
        replica = self.cluster.nodes[i]
        return (
            replica.pinned is not None
            and replica.pinned < self.cluster.authority.current_epoch
        )

    def _availability_expected(self) -> bool:
        """Can the client currently be denied a quorum legitimately?
        (A crashed or unconfirmed replica is silent, so not live.)"""
        reachable_live = sum(
            1
            for i in range(self.cluster.n)
            if self.cluster.nodes[i].confirmed
            and i not in self.partitioned
            and i not in self.revoked
            and not self._epoch_stranded(i)
        )
        return reachable_live < self.cluster.quorum or self.storm

    def _head_counter(self) -> int:
        head = self.libseal.audit_log.signed_head
        return head.counter_value if head is not None else 0

    def _after_step(self, where: str) -> None:
        """Per-step oracle: the signed head's counter never regresses."""
        counter = self._head_counter()
        if counter < self._head_max:
            self._violate(
                f"head counter went backwards at {where}: "
                f"{counter} < {self._head_max}"
            )
        self._head_max = max(self._head_max, counter)

    def _record_snapshot(self) -> None:
        counter = self._head_counter()
        if counter and (
            not self._snapshots or self._snapshots[-1][0] != counter
        ):
            self._snapshots.append((counter, self.libseal.audit_log.serialize()))
            if len(self._snapshots) > SNAPSHOT_LIMIT:
                # Keep the oldest (most stale = strongest probe) + tail.
                del self._snapshots[1:2]

    # -- traffic, network and replica lifecycle --------------------------

    def _pair(self) -> None:
        try:
            self.workload.post_once()
        except AuditBufferFullError:
            self.pairs_blocked += 1
            self._note("pair", "blocked", self._head_counter())
            if not self._availability_expected():
                self._violate("pair blocked while quorum was reachable")
            return
        except (RollbackError, IntegrityError) as exc:
            self._violate(
                f"integrity error without tampering: {type(exc).__name__}"
            )
            return
        self.pairs_ok += 1
        self._note(
            "pair",
            "degraded" if self.libseal.degraded.active else "ok",
            self._head_counter(),
        )
        if not self.libseal.degraded.active:
            self._record_snapshot()
        elif not self._availability_expected():
            # Sealing may only fail while faults can actually deny the
            # quorum; degradation in a healthy network is an audit bug.
            self._violate("entered degraded mode while quorum was reachable")

    def do_partition(self, cut: tuple[int, ...]) -> None:
        """``("partition", nodes)``: cut `nodes` away from client+rest."""
        addresses = [self.cluster.nodes[i].address for i in cut]
        rest = [
            a
            for a in (
                self.cluster.client_address,
                *(r.address for r in self.cluster.nodes),
            )
            if a not in addresses
        ]
        self.network.partition(self.PARTITION_NAME, [addresses, rest])
        self.partitioned = set(cut)
        self._note("partition", tuple(cut))

    def do_heal(self) -> None:
        """``("heal",)``: heal the partition."""
        self.network.heal(self.PARTITION_NAME)
        self.partitioned = set()
        self.network.settle()
        self._note("heal")

    def do_crash(self, i: int) -> None:
        """``("crash", i)``: replica i loses power, and its counters with
        it (they live only in enclave memory)."""
        self.cluster.crash(i)
        self._note("crash", i)

    def do_restart(self, i: int) -> None:
        """``("restart", i)``: replica i restarts and asks the group to
        confirm its counters."""
        self.cluster.recover(i)
        self._note("restart", i)

    def do_power_cycle(self, victims: tuple[int, ...]) -> None:
        """``("power_cycle", nodes)``: the nodes lose power together, then
        all restart; the group confirms them only if at most f did."""
        for i in victims:
            self.cluster.crash(i)
        for i in victims:
            self.cluster.recover(i)
        self.group_lost = self.group_lost or len(victims) > self.cluster.f
        confirmed = tuple(i for i in victims if self.cluster.nodes[i].confirmed)
        self._note("power_cycle", tuple(victims), confirmed)
        if confirmed != (() if self.group_lost else tuple(victims)):
            self._violate(f"power-cycled {victims}, confirmed {confirmed}")

    def do_lie(self, i: int, shape: str) -> None:
        """``("lie", i, shape)``: replica i turns Byzantine."""
        self.cluster.equivocate(i, shape=shape, seed=self.scenario.seed)
        self._note("lie", i, shape)

    def do_honest(self, i: int) -> None:
        """``("honest", i)``: replica i answers truthfully again."""
        self.cluster.set_lie(i, None)
        self._note("honest", i)

    def do_storm_on(self, loss: float, dup: float, reorder: float) -> None:
        """``("storm_on", loss, dup, reorder)``: degrade every link."""
        self.network.loss = loss
        self.network.duplication = dup
        self.network.reorder = reorder
        self.storm = True
        self._note("storm_on", loss, dup, reorder)

    def do_storm_off(self) -> None:
        """``("storm_off",)``: restore clean links and drain the network."""
        self.network.loss = 0.0
        self.network.duplication = 0.0
        self.network.reorder = 0.0
        self.storm = False
        self.network.settle()
        self._note("storm_off")

    def do_reseal(self) -> None:
        """``("reseal",)``: drain + retry sealing, bounded — the oracle's
        liveness clock."""
        if not self.libseal.degraded.active:
            self.recovered_in = 0
            self._note("reseal", "not-degraded")
            return
        for attempt in range(1, LIVENESS_BOUND + 1):
            self.network.settle()
            if self.libseal.try_reseal():
                self.recovered_in = attempt
                self._note("reseal", "recovered", attempt)
                return
        if self._availability_expected():
            self._note("reseal", "still-faulted")
            return
        self._violate(
            f"liveness: still degraded {LIVENESS_BOUND} reseal attempts "
            "after all faults healed"
        )

    def do_probe_stale(self) -> None:
        """``("probe_stale",)``: replay an earlier snapshot; AuditLog must
        refuse the old head."""
        stale = next(
            (
                (counter, blob)
                for counter, blob in self._snapshots
                if counter < self._head_max
            ),
            None,
        )
        if stale is None:
            self._note("probe_stale", "no-material")
            return
        counter, blob = stale
        self.stale_probes += 1
        try:
            AuditLog.load(
                blob,
                self.libseal.ssm.schema_sql,
                self.libseal.signing_key,
                self.libseal.signing_key.public_key(),
                self.cluster,
                self.config.log_id,
            )
        except RollbackError:
            self._note("probe_stale", "rejected", counter)
            return
        except QuorumUnavailableError:
            if self._availability_expected():
                self._note("probe_stale", "inconclusive", counter)
                return
            self._violate("stale probe hit QuorumUnavailableError while healthy")
            return
        self._violate(
            f"stale log head (counter {counter}, live {self._head_max}) "
            "was accepted by AuditLog verification"
        )

    def do_verify(self) -> None:
        """``("verify",)``: full log verification (healthy only)."""
        if self._availability_expected() or self.libseal.degraded.active:
            self._note("verify", "skipped")
            return
        try:
            self.libseal.verify_log()
        except RollbackError:
            self._violate("verify raised RollbackError without tampering")
            return
        except QuorumUnavailableError:
            self._violate("verify found no quorum while network was healthy")
            return
        live = self.cluster.retrieve(self.config.log_id)
        head = self._head_counter()
        if live != head:
            self._violate(
                f"live quorum counter {live} != signed head counter {head} "
                "after full recovery"
            )
            return
        self._note("verify", "ok", head)

    # -- rotation actions + oracle probes --------------------------------

    def do_rotate(self, reason: str) -> None:
        """``("rotate", reason)``: run the key-rotation coordinator; an
        injected crash leaves the WAL behind."""
        try:
            report = self.coordinator.rotate(reason)
        except InjectedCrash:
            self._note(
                "rotate", "crashed", self.cluster.authority.current_epoch
            )
            return
        self._note(
            "rotate", "done", report.to_epoch,
            len(report.acks), tuple(report.retired),
        )

    def do_rotation_resume(self) -> None:
        """``("rotation_resume",)``: replay a crashed rotation from its
        WAL entry (idempotent)."""
        report = self.coordinator.resume()
        if report is None:
            self._note("rotation_resume", "no-wal")
            return
        self._note(
            "rotation_resume", "replayed", report.to_epoch,
            len(report.acks), tuple(report.retired),
        )

    def do_force_retire(self) -> None:
        """``("force_retire",)``: operator override, retire grace epochs."""
        retired = self.coordinator.finish(force=True)
        self._note("force_retire", tuple(retired))

    def do_pin(self, i: int) -> None:
        """``("pin", i)``: strand replica i on its current build."""
        pin_replicas(self.cluster, [i])
        self._note("pin", i, self.cluster.nodes[i].epoch)

    def do_upgrade(self, i: int) -> None:
        """``("upgrade", i)``: upgrade stranded replica i's enclave build
        and audit the event."""
        upgrade_replicas(self.cluster, [i])
        replica = self.cluster.nodes[i]
        self.libseal.audit_log.append_event(
            "enclave_upgrade", f"replica {i} -> {replica.code_version}"
        )
        self._note("upgrade", i, replica.epoch)

    def do_probe_recover(self, expected: str) -> None:
        """``("probe_recover", outcome)``: crash-recover a copy of the
        stored snapshot, expecting the named fail-closed outcome.

        While the quorum is stuck on a retired-epoch fault the outcome
        must be a fail-closed degradation (``expected``), never a
        rollback/tamper detection — rotation is not an attack.
        """
        report = recover_log(
            self._storage_copy(self.storage_inner),
            self.libseal.ssm.schema_sql,
            self.libseal.signing_key,
            self.libseal.signing_key.public_key(),
            self.cluster,
            log_id=self.config.log_id,
        )
        self._note("probe_recover", report.outcome.value)
        if report.outcome in DETECTED_OUTCOMES:
            self._violate(
                f"recovery misclassified an epoch fault as "
                f"{report.outcome.value} (expected {expected})"
            )
        elif report.outcome.value != expected:
            self._violate(
                f"recovery outcome {report.outcome.value}, expected {expected}"
            )

    def _storage_copy(self, inner: InMemoryStorage):
        """A copy of ``inner`` behind this deployment's storage stack."""
        clone = copy.deepcopy(inner)
        if self.epoch_aware:
            return SealedLogStorage(clone, self.log_enclave)
        return clone

    def do_keep_snapshot(self) -> None:
        """``("keep_snapshot",)``: the host keeps a copy of LibSEAL's
        stored snapshot to restart it from later."""
        self._kept = copy.deepcopy(self.storage_inner)
        self._note("keep_snapshot", self._head_counter())

    def do_recover_stale(self) -> None:
        """``("recover_stale",)``: restart LibSEAL from the kept snapshot
        with an empty client cache; it must never resume clean."""
        # A restarted enclave keeps no client memory: the committed
        # cache is the old instance's and is not handed over.
        self.cluster._committed.clear()
        _, report = LibSeal.recover(
            MessagingSSM(),
            self._storage_copy(self._kept),
            config=self.config,
            signing_key=self.libseal.signing_key,
            rote=self.cluster,
        )
        self._note("recover_stale", report.outcome.value, report.counter)
        expected = "freshness-unverifiable" if self.group_lost else "rollback-detected"
        if report.outcome.value != expected:
            self._violate(f"stale snapshot recovered {report.outcome.value}")

    def do_check_epoch(self) -> None:
        """``("check_epoch",)``: rotation convergence oracle — one active
        epoch, no WAL, no stranded log snapshot."""
        authority = self.cluster.authority
        active = [
            epoch
            for epoch, entry in sorted(authority.epochs.items())
            if entry.state is EpochState.ACTIVE
        ]
        if active != [authority.current_epoch]:
            self._violate(
                f"epoch registry not converged: active={active}, "
                f"current={authority.current_epoch}"
            )
        if self.coordinator.pending():
            self._violate("rotation WAL entry outstanding after convergence")
        if self.epoch_aware:
            for _, epoch in stranded_blobs(authority, self.storage_inner):
                self._violate(f"sealed log snapshot stranded on epoch {epoch}")
        self._note("check_epoch", authority.current_epoch, len(authority.epochs))

    def do_check_replay(self) -> None:
        """``("check_replay",)``: non-vacuousness — pre-rotation replays
        were actually refused."""
        if self.cluster.retired_rejections == 0:
            self._violate(
                "no retired-epoch attestation was rejected: the replay "
                "family exercised nothing"
            )
        self._note("check_replay", self.cluster.retired_rejections)

    # -- attestation actions + oracle probes ------------------------------

    def _intruder_sink(self, message, src: str) -> None:
        self._note("intruder_received", type(message).__name__)

    def _ensure_intruder(self) -> None:
        if not self._intruder_registered:
            self.network.register(self.intruder_address, self._intruder_sink)
            self._intruder_registered = True

    def _intruder_evidence(self, kind: str) -> bytes:
        """Forged/relabeled join evidence of the given tamper kind.

        Every kind except ``rogue`` starts from material that would pass
        policy untampered (registered platform, authority-signed
        enclave), so the tamper itself is provably what gets caught."""
        plane = self.plane
        epoch = self.cluster.authority.current_epoch
        now = plane.clock.now()
        if kind == "replay":
            # A legitimate replica's evidence, byte-identical, replayed
            # from the intruder's address: the address binding must kill it.
            victim = self.cluster.nodes[0]
            return plane.evidence_for(
                victim.address,
                victim.enclave,
                BINDING_ROTE_JOIN,
                victim.address.encode(),
            ).encode()
        enclave = make_node_enclave(
            "rote-counter-1.0", self.cluster.authority.name
        )
        binding = report_binding(
            BINDING_ROTE_JOIN, self.intruder_address.encode(), epoch, now
        )
        if kind == "rogue":
            # A platform the attestation service never provisioned: the
            # quote verifies locally but appraisal must reject it.
            quote = plane.rogue_platform("chaos-intruder").quote(enclave, binding)
            return AttestationEvidence(quote, epoch, now).encode()
        quote = plane.platform(self.intruder_address).quote(enclave, binding)
        if kind == "relabel":
            # Flip one measurement byte after signing: the attestation
            # key's signature no longer covers the quote body.
            tampered = bytes([quote.measurement[0] ^ 0x01]) + quote.measurement[1:]
            quote = Quote(
                tampered,
                quote.signer_measurement,
                quote.report_data,
                quote.platform_id,
                quote.signature,
            )
            return AttestationEvidence(quote, epoch, now).encode()
        if kind == "epoch_relabel":
            # Honest quote, dishonest wrapper: claim a different key
            # epoch than the one the report data binds.
            return AttestationEvidence(quote, epoch + 1, now).encode()
        raise SimulationError(f"unknown intruder kind {kind!r}")

    def do_intrude(self, kind: str) -> None:
        """``("intrude", kind)``: the un-attested intruder asks everyone
        (replicas + client) to admit it."""
        self._ensure_intruder()
        evidence = self._intruder_evidence(kind)
        targets = [r.address for r in self.cluster.nodes]
        targets.append(self.cluster.client_address)
        for dst in targets:
            self.network.send(
                self.intruder_address, dst, JoinRequest(1, self.intruder_address, evidence)
            )
        self.network.settle()
        self._note("intrude", kind)

    def do_intrude_catchup(self) -> None:
        """``("intrude_catchup",)``: the intruder probes catch-up both
        ways: asks replicas for their state, and offers a poisoned reply
        whose attestation is MAC-valid under the group key (a leaked-key
        scenario) — only the admission gate stands between it and
        adoption."""
        self._ensure_intruder()
        poisoned = CounterAttestation.sign(
            self.cluster.group_key,
            self.config.log_id,
            INTRUDER_POISON,
            epoch=self.cluster.epoch,
        )
        for replica in self.cluster.nodes:
            self.network.send(
                self.intruder_address, replica.address, CatchupRequest(op_id=999)
            )
            self.network.send(
                self.intruder_address,
                replica.address,
                CatchupReply(op_id=999, node_id=99, attestations=(poisoned,)),
            )
        self.network.settle()
        self._note("intrude_catchup")

    def do_attest_outage(self) -> None:
        """``("attest_outage",)``: the attestation service goes down."""
        self.plane.service.outage()
        self._note("attest_outage")

    def do_attest_restore(self) -> None:
        """``("attest_restore",)``: the attestation service comes back."""
        self.plane.service.restore()
        self._note("attest_restore")

    def do_clock_advance(self, seconds: float) -> None:
        """``("clock_advance", s)``: advance the attestation plane clock."""
        self.plane.clock.advance(seconds)
        self._note("clock_advance", seconds)

    def do_tcb_revoke(self, i: int) -> None:
        """``("tcb_revoke", i)``: revoke replica i's platform TCB."""
        address = self.cluster.nodes[i].address
        self.plane.service.set_tcb_status(
            self.plane.platform(address).platform_id, "revoked"
        )
        self.revoked.add(i)
        self._note("tcb_revoke", i)

    def do_check_intruder(self) -> None:
        """``("check_intruder",)``: non-vacuousness — every intrusion was
        counted, none landed."""
        gates = [self.cluster.admission] + [
            r.admission for r in self.cluster.nodes
        ]
        rejections = sum(g.admission_rejections for g in gates if g is not None)
        if rejections == 0:
            self._violate(
                "no admission rejection was recorded: the intruder "
                "exercised nothing"
            )
        admitted_anywhere = [
            g.name
            for g in gates
            if g is not None and g.is_admitted(self.intruder_address)
        ]
        if admitted_anywhere:
            self._violate(f"intruder admitted at {admitted_anywhere}")
        drops = sum(r.unadmitted_drops for r in self.cluster.nodes)
        if drops == 0:
            self._violate("intruder catch-up probes were not dropped/counted")
        poisoned = [
            (r.node_id, value)
            for r in self.cluster.nodes
            for value in r.counters.values()
            if value >= INTRUDER_POISON
        ]
        if poisoned:
            self._violate(f"poisoned catch-up value adopted: {poisoned}")
        served = sum(
            1 for event in self.trace if event[0] == "intruder_received"
        )
        if served:
            self._violate(
                f"replicas answered the un-admitted intruder {served} times"
            )
        self._note("check_intruder", rejections, drops)

    def do_check_outage(self, i: int) -> None:
        """``("check_outage", i)``: non-vacuousness — replica i's rejoin
        under the outage was fail-closed."""
        replica = self.cluster.nodes[i]
        if replica.admission is None:
            self._violate("outage check on an un-attested replica")
            return
        if replica.admission.admitted_addresses():
            self._violate(
                "replica re-admitted peers during the attestation outage: "
                f"{replica.admission.admitted_addresses()}"
            )
        if replica.unadmitted_drops == 0:
            self._violate(
                "replica adopted (or never received) catch-up replies it "
                "could not attest — expected counted drops"
            )
        refused = self.cluster.admission.admission_unavailable + sum(
            r.admission.admission_unavailable
            for r in self.cluster.nodes
            if r.admission is not None
        )
        if refused == 0:
            self._violate(
                "no admission was refused as unverifiable during the outage"
            )
        self._note(
            "check_outage", i, replica.unadmitted_drops, refused
        )

    def do_check_revoked(self, i: int) -> None:
        """``("check_revoked", i)``: non-vacuousness — revocation evicted
        and discounted replica i."""
        address = self.cluster.nodes[i].address
        if self.cluster.admission.is_admitted(address):
            self._violate(f"revoked replica {i} still admitted at the client")
        if self.cluster.admission.revocations == 0:
            self._violate("client revalidation evicted nothing after the TCB change")
        peer_evictions = sum(
            r.admission.revocations
            for r in self.cluster.nodes
            if r.admission is not None
        )
        if peer_evictions == 0:
            self._violate("no peer evicted the revoked replica")
        if self.cluster.replies_unadmitted == 0:
            self._violate(
                "the revoked replica's replies were never discounted — "
                "the family exercised nothing"
            )
        self._note(
            "check_revoked", i,
            self.cluster.admission.revocations,
            self.cluster.replies_unadmitted,
        )

    # -- end of script ----------------------------------------------------

    def _final_check(self) -> None:
        if self.group_lost:
            # More than f memories lost: nothing can confirm a replica
            # again and nothing re-initialises the group (DESIGN §5), so
            # liveness is not owed. Safety was checked at every step.
            self._note("group_lost")
            return
        if self._availability_expected():
            self._violate("scenario script ended with active faults")
        # With at most f lost at once, the closing traffic re-sends every
        # rejoiner's catch-up to peers it can hear again: none may be left
        # silent, or one more crash could cost the quorum for good.
        nodes = self.cluster.nodes
        silent = [i for i in range(len(nodes)) if not nodes[i].confirmed]
        if silent:
            self._violate(f"restarted replicas {silent} never confirmed")
        if self.libseal.degraded.active:
            self._violate("scenario ended degraded: liveness not restored")
