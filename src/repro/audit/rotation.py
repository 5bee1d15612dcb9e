"""Epochal key rotation: the crash-safe lifecycle coordinator.

The sealing, group and HMAC keys all descend from one
:class:`~repro.sgx.sealing.SigningAuthority` epoch. Rotating that epoch
invalidates every derived key at once — the remedy for suspected key
exposure, scheduled hygiene, and enclave upgrades alike — but rotation
is a *distributed, multi-step* state change: the authority's registry,
the audit log (which records the rotation as a chained tuple), the
sealed log image on untrusted storage, and every ROTE replica's
in-memory counters must all cross to the new epoch. A crash in the middle
must never leave the deployment split across two epochs, and a slow or
partitioned replica must never be silently stranded on keys that stop
verifying.

:class:`KeyRotationCoordinator` gets both properties from an authenticated
write-ahead :class:`~repro.audit.hashchain.RotationIntent` plus
idempotent steps, run by the shared
:class:`~repro.audit.wal.CheckpointedWal`:

1. durably record an authenticated rotation intent (the WAL entry);
2. advance the authority's epoch registry (old epoch → grace window);
3. append an audited ``key_rotation`` event to the log itself, so the
   rotation is part of the tamper-evident history an auditor replays;
4. re-seal the log under the new epoch, rewriting its whole image so
   no stored record stays sealed under the old one;
5. announce the epoch to the replica group — replicas that can derive
   the new keys adopt them and re-MAC their counters;
6. retire the old epoch once *every* replica has adopted the new one
   (otherwise it stays in the grace window — rotation never strands a
   healthy replica), then clear the WAL entry.

After a crash, :meth:`~repro.audit.wal.CheckpointedWal.resume` replays
the surviving intent through the same steps; each is guarded
(``current_epoch`` check, ``has_event``, re-seal, re-announce) so replay
converges on exactly one active epoch no matter where the crash hit. An
intent whose ``to_epoch`` the authority has already moved past is a
*stale* replay by the storage provider and is discarded, never re-run.
The ``rotation.step`` fault site lets the chaos suite inject a crash
between any two steps (:data:`ROTATION_CHECKPOINTS` of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.hashchain import RotationIntent
from repro.audit.persistence import split_frames
from repro.audit.wal import CheckpointedWal
from repro.obs import hooks as _obs
from repro.sgx.sealing import EpochState, SealedBlob


@dataclass
class RotationReport:
    """What one rotation (or WAL replay) did, for operators and tests."""

    from_epoch: int
    to_epoch: int
    reason: str
    resumed: bool = False
    log_resealed: bool = False
    #: Epoch each replica acknowledged after the announcement round.
    acks: dict[int, int] = field(default_factory=dict)
    #: Epochs retired by this pass (empty while the grace window holds).
    retired: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Every acked replica reached the new epoch."""
        return bool(self.acks) and all(
            epoch >= self.to_epoch for epoch in self.acks.values()
        )

    def describe(self) -> str:
        bits = [
            f"epoch {self.from_epoch}->{self.to_epoch}",
            f"acks={len(self.acks)}",
        ]
        if self.resumed:
            bits.append("resumed")
        if self.retired:
            bits.append(f"retired={self.retired}")
        return " ".join(bits)


def retire_grace_epochs(authority) -> list[int]:
    """Retire every grace-window epoch: replicas still on one fail closed."""
    retired = []
    for epoch, entry in sorted(authority.epochs.items()):
        if entry.state is EpochState.GRACE:
            authority.retire(epoch)
            retired.append(epoch)
    return retired


def stranded_blobs(authority, storage) -> list[tuple]:
    """Sealed blobs the current key registry can no longer open.

    Looks at every sealed frame of the image in ``storage`` — the *raw*
    store underneath a sealed-at-rest log (replicas keep their counters
    in enclave memory and leave nothing on disk). Returns ``("log",
    epoch)`` pairs; a converged rotation, whose re-seal rewrote the
    image under the new epoch, leaves none.
    """
    if not storage.exists():
        return []
    frames, _ = split_frames(storage.load())
    epochs = sorted({SealedBlob.decode(sealed).epoch for sealed in frames})
    return [
        ("log", epoch)
        for epoch in epochs
        if authority.epoch_state(epoch) not in (EpochState.ACTIVE, EpochState.GRACE)
    ]


class KeyRotationCoordinator(CheckpointedWal):
    """Drives epochal key rotation for one LibSeal instance."""

    INTENT = RotationIntent
    FAULT_SITE = "rotation.step"

    def __init__(self, libseal) -> None:
        super().__init__()
        self.libseal = libseal

    # The coordinator reads its collaborators through the LibSeal
    # instance on every access: crash recovery replaces the audit log,
    # and the coordinator must follow it.

    @property
    def authority(self):
        return self.libseal.rote.authority

    @property
    def cluster(self):
        return self.libseal.rote

    @property
    def storage(self):
        return self.libseal.storage

    @property
    def audit_log(self):
        return self.libseal.audit_log

    @property
    def signing_key(self):
        return self.libseal.signing_key

    @property
    def owner_id(self) -> str:
        return self.libseal.config.log_id

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def rotate(self, reason: str = "scheduled") -> RotationReport:
        """Rotate to a fresh epoch, end to end (WAL write first)."""
        from_epoch = self.authority.current_epoch
        return self._begin(
            RotationIntent.seal(
                self.signing_key,
                self.owner_id,
                from_epoch,
                from_epoch + 1,
                reason,
            )
        )

    def finish(self, force: bool = False) -> list[int]:
        """Retire grace-window epochs once the group no longer needs them.

        Without ``force``, retirement happens only when every replica
        acknowledges the current epoch — the bounded-grace guarantee
        that rotation never strands a healthy replica. ``force=True``
        is the operator override (e.g. confirmed key compromise):
        stragglers then fail closed on their next restart.
        """
        if not force:
            acks = self.cluster.announce_epoch()
            current = self.authority.current_epoch
            if len(acks) < self.cluster.n or any(
                epoch < current for epoch in acks.values()
            ):
                return []
        return retire_grace_epochs(self.authority)

    # ------------------------------------------------------------------
    # The idempotent step table
    # ------------------------------------------------------------------

    def _still_current(self, intent: RotationIntent) -> bool:
        # Equality is a legitimate mid-flight replay (the registry already
        # advanced); anything older was completed by a later rotation.
        return intent.to_epoch >= self.authority.current_epoch

    def _advance_registry(self, intent: RotationIntent, report: RotationReport) -> None:
        if self.authority.current_epoch < intent.to_epoch:
            self.authority.rotate(intent.reason)

    def _record_event(self, intent: RotationIntent, report: RotationReport) -> None:
        """The rotation becomes part of the audited history."""
        detail = f"epoch {intent.from_epoch}->{intent.to_epoch}: {intent.reason}"
        if not self.audit_log.has_event("key_rotation", detail):
            self.audit_log.append_event("key_rotation", detail)

    def _reseal_log(self, intent: RotationIntent, report: RotationReport) -> None:
        """Re-seal the log under the new epoch: the seal rewrites the whole
        image, so no stored byte stays under the old key. An availability
        fault defers the re-seal (degraded mode), it does not abort the
        rotation — the WAL survives until done."""
        self.audit_log.rewrite_pending = True
        report.log_resealed = self.libseal._try_seal()

    def _announce(self, intent: RotationIntent, report: RotationReport) -> None:
        """Replicas adopt the epoch and re-MAC their counters."""
        report.acks = self.cluster.announce_epoch()

    def _retire_old(self, intent: RotationIntent, report: RotationReport) -> None:
        """Retire the old lineage only once the whole group is across;
        otherwise the grace window keeps it verifiable."""
        if len(report.acks) == self.cluster.n and report.converged:
            report.retired = self.finish(force=True)

    STEPS = (_advance_registry, _record_event, _reseal_log, _announce, _retire_old)

    def _run(self, intent: RotationIntent, resumed: bool) -> RotationReport:
        report = RotationReport(
            from_epoch=intent.from_epoch,
            to_epoch=intent.to_epoch,
            reason=intent.reason,
            resumed=resumed,
        )
        with _obs.span("audit.rotation") as obs_span:
            self._run_steps(intent, report)
            if report.log_resealed:
                self._clear()
            if _obs.ON:
                _obs.active().metrics.counter(
                    "key_rotation_runs_total",
                    "Rotation coordinator passes",
                    resumed=str(resumed).lower(),
                ).inc()
                if obs_span is not None:
                    obs_span.set_attr("to_epoch", intent.to_epoch)
                    obs_span.set_attr("acks", len(report.acks))
        return report


#: ``rotation.step`` checkpoints one ``rotate()`` visits: one after the
#: WAL write, one after every step of the table.
ROTATION_CHECKPOINTS = KeyRotationCoordinator.checkpoints()
