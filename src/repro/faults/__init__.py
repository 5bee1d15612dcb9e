"""Deterministic fault injection for the audit pipeline.

The robustness counterpart to the attack injectors in
:mod:`repro.services`: those attack the *service* below LibSEAL, this
package attacks the *infrastructure* LibSEAL itself stands on — storage,
the ROTE counter quorum, the enclave, and the process — so the
detect-or-recover guarantees of §3.2/§5.1 are testable under crashes,
partitions and adversarial storage, not just on the happy path.

Usage::

    from repro import faults

    plan = faults.FaultPlan.random(seed=42, max_pairs=10)
    try:
        with faults.inject(plan) as injector:
            workload.run(10)
    except faults.InjectedCrash:
        ...  # simulate restart, then drive recovery

See :mod:`repro.audit.recovery` for the recovery protocol the chaos
suite exercises against these plans.
"""

from repro.faults.hooks import active, check, inject, record_save
from repro.faults.plan import (
    AVAILABILITY_KINDS,
    CRASH_KINDS,
    INTEGRITY_KINDS,
    NETWORK_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FiredFault,
    InjectedCrash,
)

__all__ = [
    "AVAILABILITY_KINDS",
    "CRASH_KINDS",
    "INTEGRITY_KINDS",
    "NETWORK_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FiredFault",
    "InjectedCrash",
    "active",
    "check",
    "inject",
    "record_save",
]
