"""Crash recovery for the audit pipeline.

The enclave can die at any instruction — power loss, EPC purge, injected
chaos — and the paper's guarantees must survive the restart: every
*acknowledged* request/response pair stays in the log, every integrity or
freshness violation by the (adversarial) storage provider is *detected*,
and benign crashes never masquerade as attacks.

:func:`recover_log` is the startup path. It loads the last snapshot from
untrusted storage, re-verifies the hash chain and head signature,
cross-checks freshness against the ROTE quorum (whose RPCs carry bounded
retry/backoff), and classifies the outcome:

==========================  ==================================================
outcome                     meaning
==========================  ==================================================
``NO_SNAPSHOT``             nothing was ever sealed; fresh start
``CLEAN_RESUME``            snapshot verified, counter matches the quorum
``TORN_TAIL_TRUNCATED``     a crash mid-write left an orphaned ``.tmp``; the
                            atomic-replace invariant preserved the previous
                            snapshot, the torn tail is discarded
``IN_FLIGHT_DISCARDED``     the counter is one behind the quorum *and* a valid
                            authenticated seal intent proves the enclave was
                            mid-seal: the unacknowledged in-flight pair is
                            discarded and the gap closed by re-sealing
``TAMPER_DETECTED``         chain/signature/ciphertext verification failed,
                            or the stored schema/log id is not the service's
``ROLLBACK_DETECTED``       the counter is behind the quorum with no valid
                            intent to explain it — a stale snapshot was served
``FRESHNESS_UNVERIFIABLE``  structure verified, but no ROTE quorum answered
                            after retries; resume only in degraded mode
``STORAGE_UNAVAILABLE``     storage I/O failed; retryable, nothing proven
``RETIRED_EPOCH``           the snapshot is sealed under a key epoch that a
                            later rotation retired; fail closed — resume on
                            the re-sealed snapshot, never this one
==========================  ==================================================

The in-flight pair is always *discarded*, never replayed: in the
synchronous LibSEAL-disk configuration the client response is released
only after the seal completes, so a pair lost mid-seal was never
acknowledged and the client will retry — discarding is the deterministic,
exactly-once-safe choice.

**Last-epoch ambiguity.** A provider who rolls back exactly one epoch
*and* serves the preserved intent file is indistinguishable from a benign
crash between the counter increment and the snapshot write — an inherent
limit of counter-based freshness shared with ROTE/Ariadne-class schemes.
The damage is bounded to the single newest epoch, and the affected client
holds the (signed) response header to dispute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.audit.hashchain import SealIntent
from repro.audit.log import AuditLog
from repro.audit.persistence import LogStorage
from repro.audit.rote import RoteCluster
from repro.audit.wal import load_valid_intent
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from repro.errors import (
    IntegrityError,
    QuorumUnavailableError,
    RetiredEpochError,
    RollbackError,
    SealingError,
    StorageError,
)
from repro.obs import hooks as _obs


class RecoveryOutcome(Enum):
    NO_SNAPSHOT = "no-snapshot"
    CLEAN_RESUME = "clean-resume"
    TORN_TAIL_TRUNCATED = "torn-tail-truncated"
    IN_FLIGHT_DISCARDED = "in-flight-discarded"
    TAMPER_DETECTED = "tamper-detected"
    ROLLBACK_DETECTED = "rollback-detected"
    FRESHNESS_UNVERIFIABLE = "freshness-unverifiable"
    STORAGE_UNAVAILABLE = "storage-unavailable"
    RETIRED_EPOCH = "retired-epoch"


#: Outcomes where an integrity/freshness violation was *detected*: the
#: service must not resume on this snapshot.
DETECTED_OUTCOMES = frozenset(
    {RecoveryOutcome.TAMPER_DETECTED, RecoveryOutcome.ROLLBACK_DETECTED}
)

#: Outcomes where the log is usable and no acknowledged entry was lost.
RECOVERED_OUTCOMES = frozenset(
    {
        RecoveryOutcome.NO_SNAPSHOT,
        RecoveryOutcome.CLEAN_RESUME,
        RecoveryOutcome.TORN_TAIL_TRUNCATED,
        RecoveryOutcome.IN_FLIGHT_DISCARDED,
    }
)


@dataclass
class RecoveryReport:
    """Everything the operator (and the chaos suite) needs to know."""

    outcome: RecoveryOutcome
    log: AuditLog | None = None
    entries: int = 0
    counter: int | None = None
    live_counter: int | None = None
    torn_tmp_found: bool = False
    intent_found: bool = False
    resealed: bool = False
    detail: str = ""
    error: Exception | None = None

    @property
    def detected(self) -> bool:
        return self.outcome in DETECTED_OUTCOMES

    @property
    def recovered(self) -> bool:
        return self.outcome in RECOVERED_OUTCOMES

    def describe(self) -> str:
        bits = [self.outcome.value, f"entries={self.entries}"]
        if self.counter is not None:
            bits.append(f"counter={self.counter}")
        if self.live_counter is not None:
            bits.append(f"quorum={self.live_counter}")
        if self.torn_tmp_found:
            bits.append("torn-tmp")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


def recover_log(
    storage: LogStorage,
    schema_sql: str,
    signing_key: EcdsaPrivateKey,
    public_key: EcdsaPublicKey,
    rote: RoteCluster,
    log_id: str = "libseal-log",
) -> RecoveryReport:
    """Load, verify and classify the last audit-log snapshot.

    ``schema_sql`` (``ssm.schema_sql``) and ``log_id`` are the service's:
    the snapshot's copies are not signed, so one that differs is
    ``TAMPER_DETECTED``, never executed or adopted. ``signing_key``
    authenticates the seal intent; ``public_key`` verifies the head.

    Never raises for faults it can classify: every path returns a
    :class:`RecoveryReport` so the startup code can decide policy
    (resume, degrade, refuse) without exception archaeology.
    """
    with _obs.span("audit.recovery") as obs_span:
        report = _recover_log(
            storage, schema_sql, signing_key, public_key, rote, log_id
        )
        if _obs.ON:
            _obs.active().metrics.counter(
                "audit_recovery_total",
                "Crash-recovery classifications by outcome",
                outcome=report.outcome.value,
            ).inc()
            if obs_span is not None:
                obs_span.set_attr("outcome", report.outcome.value)
                obs_span.set_attr("entries", report.entries)
        return report


def _recover_log(
    storage: LogStorage,
    schema_sql: str,
    signing_key: EcdsaPrivateKey,
    public_key: EcdsaPublicKey,
    rote: RoteCluster,
    log_id: str,
) -> RecoveryReport:
    torn = bool(getattr(storage, "orphans_cleaned", []))
    # A forged/corrupt/foreign intent buys the adversary nothing: it reads
    # as absent, and a counter gap without an intent is a rollback.
    intent = load_valid_intent(storage, SealIntent, signing_key, log_id)

    if not storage.exists():
        # Nothing was ever durably sealed. A leftover intent means the
        # very first seal crashed before its snapshot write completed.
        storage.clear_intent(SealIntent.SIDECAR)
        return RecoveryReport(
            outcome=RecoveryOutcome.NO_SNAPSHOT,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            detail="first seal in flight" if intent is not None else "",
        )

    try:
        blob = storage.load()
    except StorageError as exc:
        return RecoveryReport(
            outcome=RecoveryOutcome.STORAGE_UNAVAILABLE,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            error=exc,
            detail=str(exc),
        )
    except RetiredEpochError as exc:
        # The snapshot is sealed under a key epoch that has since been
        # retired. Not *proven* tampered — but the rotation deliberately
        # invalidated that lineage, so the enclave refuses to resume on
        # it (fail closed). Distinct from TAMPER_DETECTED: the operator
        # remedy is restoring the re-sealed snapshot, not forensics.
        return RecoveryReport(
            outcome=RecoveryOutcome.RETIRED_EPOCH,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            error=exc,
            detail=str(exc),
        )
    except SealingError as exc:
        # Sealed-at-rest snapshot that no longer unseals: the ciphertext
        # was modified — integrity violation, not an availability fault.
        return RecoveryReport(
            outcome=RecoveryOutcome.TAMPER_DETECTED,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            error=exc,
            detail=str(exc),
        )

    try:
        log = AuditLog.load(
            blob,
            schema_sql,
            signing_key,
            public_key,
            rote,
            log_id,
            storage=storage,
            check_freshness=False,
        )
    except IntegrityError as exc:
        return RecoveryReport(
            outcome=RecoveryOutcome.TAMPER_DETECTED,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            error=exc,
            detail=str(exc),
        )

    head = log.signed_head
    assert head is not None  # load() rejects headless snapshots
    try:
        live = rote.retrieve(log_id)
    except QuorumUnavailableError as exc:
        # Structure verified but freshness cannot be certified. Resume is
        # the operator's call — LibSeal resumes in explicit degraded mode.
        return RecoveryReport(
            outcome=RecoveryOutcome.FRESHNESS_UNVERIFIABLE,
            log=log,
            entries=len(log.chain),
            counter=head.counter_value,
            torn_tmp_found=torn,
            intent_found=intent is not None,
            error=exc,
            detail=str(exc),
        )

    report = RecoveryReport(
        outcome=RecoveryOutcome.CLEAN_RESUME,
        log=log,
        entries=len(log.chain),
        counter=head.counter_value,
        live_counter=live,
        torn_tmp_found=torn,
        intent_found=intent is not None,
    )

    if head.counter_value >= live:
        # Fully fresh. A lingering intent just means the crash hit after
        # the snapshot write but before the intent clear — drop it.
        storage.clear_intent(SealIntent.SIDECAR)
        if torn:
            report.outcome = RecoveryOutcome.TORN_TAIL_TRUNCATED
            report.detail = "orphaned tmp discarded; previous snapshot intact"
        return report

    gap = live - head.counter_value
    if (
        gap == 1
        and intent is not None
        and intent.entry_count >= head.entry_count
    ):
        # The enclave's own seal was in flight: counter advanced, snapshot
        # write never landed. The pair was never acknowledged — discard it
        # and close the gap by re-sealing the verified state.
        report.outcome = RecoveryOutcome.IN_FLIGHT_DISCARDED
        report.detail = f"counter gap 1 explained by seal intent (live {live})"
        try:
            log.seal_epoch()
        except (QuorumUnavailableError, StorageError) as exc:
            # Gap explained, but the closing re-seal could not complete
            # right now; resume degraded and retry with normal traffic.
            report.error = exc
            report.detail += f"; re-seal deferred: {exc}"
        else:
            report.counter = log.signed_head.counter_value
            report.resealed = True
        return report

    report.outcome = RecoveryOutcome.ROLLBACK_DETECTED
    report.log = None
    report.error = RollbackError(
        f"stale audit log: counter {head.counter_value} < quorum value {live}"
        + (" (no valid seal intent)" if intent is None else f" (gap {gap})")
    )
    report.detail = str(report.error)
    return report
