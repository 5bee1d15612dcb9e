"""Crash recovery for the audit pipeline.

The enclave can die at any instruction — power loss, EPC purge, injected
chaos — and the paper's guarantees must survive the restart: every
*acknowledged* request/response pair stays in the log, every integrity or
freshness violation by the (adversarial) storage provider is *detected*,
and benign crashes never masquerade as attacks.

:func:`recover_log` is the startup path. It loads the stored record image
from untrusted storage, verifies every record MAC, re-verifies the hash
chain and the last head's signature where its record stores one,
cross-checks freshness against the ROTE quorum (whose RPCs carry
bounded retry/backoff), and classifies the
outcome:

==========================  ==================================================
outcome                     meaning
==========================  ==================================================
``NO_SNAPSHOT``             nothing was ever sealed; fresh start
``CLEAN_RESUME``            image verified, counter matches the quorum; an
                            intent record after the last head (a crash
                            before its increment) is superseded by the next
                            seal's, and nothing is written
``TORN_TAIL_TRUNCATED``     as ``CLEAN_RESUME``, but a crash mid-write left a
                            strict prefix of one more record at the end of
                            the image (cut off before anything is appended)
                            or an orphaned ``.tmp`` of a crashed rewrite
``IN_FLIGHT_DISCARDED``     the counter is one behind the quorum *and* an
                            intent record follows the last head: the
                            record chain binds it to that head, proving the
                            enclave was mid-seal — whether that seal
                            extended the chain or rewrote it (a trim). The
                            unacknowledged tuples are discarded and the gap
                            closed by re-sealing the verified state
``TAMPER_DETECTED``         a record MAC, the chain, the signature or the
                            ciphertext failed verification, the image is
                            not the service's (log id, schema), or it is in
                            an unsupported format (a JSON snapshot)
``ROLLBACK_DETECTED``       the counter is behind the quorum with no intent
                            record to explain it — a stale image was served
``FRESHNESS_UNVERIFIABLE``  structure verified, but no ROTE quorum answered
                            after retries; resume only in degraded mode
``STORAGE_UNAVAILABLE``     storage I/O failed; retryable, nothing proven
``RETIRED_EPOCH``           the image is sealed under a key epoch that a
                            later rotation retired; fail closed — resume on
                            the re-sealed image, never this one
==========================  ==================================================

The in-flight pair is always *discarded*, never replayed: in the
synchronous LibSEAL-disk configuration the client response is released
only after the seal completes, so a pair lost mid-seal was never
acknowledged and the client will retry — discarding is the deterministic,
exactly-once-safe choice.

**Last-epoch ambiguity.** A provider who rolls back exactly one epoch
by cutting the final head record off the image (whole or in part) is
indistinguishable from a benign crash between the counter increment and
the head append — an inherent limit of counter-based freshness shared
with ROTE/Ariadne-class schemes. The damage is bounded to the single
newest epoch. The affected client holds no signed head to dispute it:
no response carries one, and the only header LibSEAL adds is
``Libseal-Check-Result`` (:mod:`repro.core.logger`), a check's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.audit.log import AuditLog
from repro.audit.persistence import LogStorage
from repro.audit.rote import RoteCluster
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
    """Load, verify and classify the stored audit-log image.

    ``schema_sql`` (``ssm.schema_sql``) and ``log_id`` are the service's
    and key the record MACs: an image of another log or schema is
    ``TAMPER_DETECTED``, never executed or adopted. ``signing_key`` keys
    the record MACs; ``public_key`` verifies the head.
    Writes nothing unless it cuts a torn tail or re-seals an in-flight
    gap.

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
    report = RecoveryReport(RecoveryOutcome.NO_SNAPSHOT, torn_tmp_found=torn)
    if not storage.exists():
        return report  # the first seal writes the image whole, atomically

    try:
        blob = storage.load()
        log, in_flight, end = AuditLog.restore(
            blob, schema_sql, signing_key, public_key, rote, log_id, storage=storage
        )
    except (StorageError, SealingError, IntegrityError) as exc:
        # I/O failed: retryable, nothing proven. A retired key epoch: not
        # *proven* tampered, but the rotation invalidated that lineage, so
        # fail closed — the remedy is the re-sealed image, not forensics.
        # Anything else that does not unseal or verify is tampering.
        if isinstance(exc, StorageError):
            report.outcome = RecoveryOutcome.STORAGE_UNAVAILABLE
        elif isinstance(exc, RetiredEpochError):
            report.outcome = RecoveryOutcome.RETIRED_EPOCH
        else:
            report.outcome = RecoveryOutcome.TAMPER_DETECTED
        report.error, report.detail = exc, str(exc)
        return report

    head = log.signed_head
    report.outcome = RecoveryOutcome.CLEAN_RESUME
    report.log, report.entries, report.counter = log, len(log.chain), head.counter_value
    report.intent_found = in_flight
    try:
        report.live_counter = live = rote.retrieve(log_id)
    except QuorumUnavailableError as exc:
        # Structure verified but freshness cannot be certified. Resume is
        # the operator's call — LibSeal resumes in explicit degraded mode.
        report.outcome = RecoveryOutcome.FRESHNESS_UNVERIFIABLE
        report.error, report.detail = exc, str(exc)
        live = None

    gap = 0 if live is None else live - head.counter_value
    if gap > 1 or (gap == 1 and not in_flight):
        report.outcome, report.log = RecoveryOutcome.ROLLBACK_DETECTED, None
        report.error = RollbackError(
            f"stale audit log: counter {head.counter_value} < quorum value "
            f"{live}" + (f" (gap {gap})" if in_flight else " (no seal intent)")
        )
        report.detail = str(report.error)
        return report

    if end < len(blob):
        # A strict prefix of one more record: the crash hit mid-append.
        # Cut it off before anything is appended after it.
        report.detail = f"torn tail of {len(blob) - end} bytes cut"
        try:
            storage.save(blob[:end])
        except StorageError as exc:
            report.outcome, report.log, report.error = (
                RecoveryOutcome.STORAGE_UNAVAILABLE, None, exc
            )
            report.detail += f"; cut failed: {exc}"
            return report
        torn = True

    if live is None:
        return report
    if gap <= 0:
        # Fully fresh. A trailing intent record just means the crash hit
        # before its increment; the next seal's intent supersedes it.
        if torn:
            report.outcome = RecoveryOutcome.TORN_TAIL_TRUNCATED
            report.detail = report.detail or "orphaned tmp discarded; image intact"
        return report

    # The enclave's own seal was in flight: counter advanced, head record
    # never landed. The pair was never acknowledged — discard it and close
    # the gap by re-sealing the verified state.
    report.outcome = RecoveryOutcome.IN_FLIGHT_DISCARDED
    report.detail = f"counter gap 1 explained by seal intent (live {live})"
    try:
        log.seal_epoch()
    except (QuorumUnavailableError, StorageError) as exc:
        # Gap explained, but the closing re-seal could not complete right
        # now; resume degraded and retry with normal traffic.
        report.error = exc
        report.detail += f"; re-seal deferred: {exc}"
    else:
        report.counter = log.signed_head.counter_value
        report.resealed = True
    return report
