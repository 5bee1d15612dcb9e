"""The tamper-evident, rollback-protected audit log (§5.1).

LibSEAL's log must survive an adversarial storage layer: the provider may
forge, modify, delete or *roll back* log state. Defences, as in the paper:

- :mod:`repro.audit.hashchain` — a hash chain over all logged tuples with
  an ECDSA signature over each epoch head, so only the enclave can extend
  the log and any modification or deletion is detected;
- :mod:`repro.audit.rote` — the ROTE distributed monotonic counter
  protocol (n = 3f+1 nodes, quorum 2f+1) binding the log head to a fresh
  counter value, so presenting an older signed log is detected;
- :mod:`repro.audit.persistence` — synchronous flush of log state to
  untrusted storage, sealed via the SGX sealing facility;
- :mod:`repro.audit.wal` — the authenticated write-ahead intent shared by the
  seal, key-rotation and shard-membership protocols: one codec, one
  validator, one checkpointed step runner;
- :mod:`repro.audit.log` — :class:`AuditLog`, tying the relational store
  (SealDB), the hash chain, the counter and persistence together, with
  trimming that recomputes the chain over surviving entries.
"""

from repro.audit.admission import AdmissionController
from repro.audit.hashchain import (
    HashChain,
    MembershipIntent,
    RotationIntent,
    SignedHead,
)
from repro.audit.log import AuditLog
from repro.audit.merge import MergedLog, check_merged_invariants, merge_logs
from repro.audit.persistence import LogStorage
from repro.audit.recovery import (
    DETECTED_OUTCOMES,
    RECOVERED_OUTCOMES,
    RecoveryOutcome,
    RecoveryReport,
    recover_log,
)
from repro.audit.rotation import KeyRotationCoordinator, RotationReport
from repro.audit.rote import RoteCluster, RoteNode
from repro.audit.rote_replica import (
    CounterAttestation,
    EpochNotice,
    JoinReply,
    JoinRequest,
    LieModel,
    RoteReplica,
)
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave

__all__ = [
    "HashChain",
    "MembershipIntent",
    "RotationIntent",
    "SignedHead",
    "KeyRotationCoordinator",
    "RotationReport",
    "EpochNotice",
    "AuditLog",
    "MergedLog",
    "check_merged_invariants",
    "merge_logs",
    "LogStorage",
    "DETECTED_OUTCOMES",
    "RECOVERED_OUTCOMES",
    "RecoveryOutcome",
    "RecoveryReport",
    "recover_log",
    "AdmissionController",
    "RoteCluster",
    "RoteNode",
    "RoteReplica",
    "JoinRequest",
    "JoinReply",
    "CounterAttestation",
    "LieModel",
    "SealedLogStorage",
    "make_log_enclave",
]
