"""The audited membership log of the sharded audit plane.

Every membership change — split, merge, decommission — is itself part of
the tamper-evident history: the plane appends epoch- and generation-
tagged ``shard_membership`` events to its *control* audit log, which is
an ordinary :class:`~repro.audit.log.AuditLog` (hash chain, signed head,
its own ROTE counter group). An auditor replaying the control log sees
exactly when ownership changed hands, under which key epoch, and in
which generation — and tampering with that history breaks the chain
like any service tuple.

Each change is recorded twice, at two different checkpoints of the
rebalance: a ``begin`` record right after the WAL intent (the change is
now part of history even if the transfer later fails closed) and a
``cutover`` record at the instant ownership switches. Records are
idempotent via :meth:`~repro.audit.log.AuditLog.has_event`, so the
crash-replay of the rebalance WAL never duplicates them.
"""

from __future__ import annotations

from repro.audit.hashchain import MembershipIntent
from repro.audit.log import EVENTS_TABLE, AuditLog

MEMBERSHIP_EVENT = "shard_membership"


def change_detail(intent: MembershipIntent, phase: str) -> str:
    """The canonical audited detail line for one change at one phase."""
    return (
        f"{intent.kind} {intent.shard}: gen "
        f"{intent.generation_from}->{intent.generation_to} "
        f"epoch {intent.epoch} [{phase}]"
    )


class MembershipLog:
    """Audited membership records riding the control log's hash chain."""

    def __init__(self, control_log: AuditLog):
        self.control_log = control_log
        self.records_appended = 0

    def has(self, intent: MembershipIntent, phase: str) -> bool:
        return self.control_log.has_event(
            MEMBERSHIP_EVENT, change_detail(intent, phase)
        )

    def record(self, intent: MembershipIntent, phase: str) -> bool:
        """Append one membership record (idempotent); True when appended.

        The caller seals the control log afterwards so the record is
        anchored under the control ROTE counter before the rebalance
        proceeds past its checkpoint.
        """
        if self.has(intent, phase):
            return False
        self.control_log.append_event(
            MEMBERSHIP_EVENT, change_detail(intent, phase)
        )
        self.records_appended += 1
        return True

    def changes(self) -> list[str]:
        """Every membership record, in chain order."""
        return [
            detail
            for (detail,) in self.control_log.query(
                f"SELECT detail FROM {EVENTS_TABLE} WHERE kind = ?",
                (MEMBERSHIP_EVENT,),
            )
        ]
