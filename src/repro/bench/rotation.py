"""Measurement functions for the key-rotation benchmark.

Two questions the epochal key lifecycle raises that the chaos soak
asserts but does not quantify:

- what does a rotation *cost* while the service keeps running — how many
  counter increments, network messages and replica epoch migrations does
  one epoch bump consume, and does the service keep certifying pairs across
  the bump (rotation must never strand a healthy replica);
- how expensive is WAL crash-replay — a crash at every coordinator
  checkpoint must converge on resume with zero unsealable blobs, and the
  replay cost should be one bounded re-run, not proportional to how far
  the first attempt got.

All gateable metrics are deterministic counts (increments, messages,
replica epoch migrations, rejections); wall-clock columns are
informational only.
"""

from __future__ import annotations

import time

from repro.audit.persistence import InMemoryStorage
from repro.audit.rotation import (
    ROTATION_CHECKPOINTS,
    KeyRotationCoordinator,
    stranded_blobs,
)
from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import CounterAttestation, CounterReply
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core.libseal import LibSeal, LibSealConfig
from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash
from repro.sgx import EpochState
from repro.sim.network import SimNetwork
from repro.ssm.messaging import MessagingSSM

LOG_ID = "bench-rotation"


def _build(f: int = 1, seed: int = 11):
    network = SimNetwork(seed=seed, latency_steps=1, jitter_steps=1)
    cluster = RoteCluster(f=f, network=network, cluster_id="bench", seed=seed)
    storage = SealedLogStorage(
        InMemoryStorage(), make_log_enclave(cluster.authority)
    )
    libseal = LibSeal(
        MessagingSSM(),
        config=LibSealConfig(rote_f=f, log_id=LOG_ID),
        rote=cluster,
        storage=storage,
    )
    return libseal, KeyRotationCoordinator(libseal)


def _drive(libseal: LibSeal, pairs: int) -> None:
    for index in range(pairs):
        libseal.audit_log.append_event("workload", f"pair-{index}")
        libseal.audit_log.seal_epoch()


def _unsealable_blobs(libseal: LibSeal) -> int:
    """Blobs on disk that the current key registry can no longer open."""
    return len(stranded_blobs(libseal.rote.authority, libseal.storage.inner))


def rotation_lifecycle(
    rotations: int = 3, pairs_between: int = 4, seed: int = 11
) -> dict:
    """Cost of live rotations interleaved with audited service traffic."""
    libseal, coordinator = _build(seed=seed)
    cluster = libseal.rote
    _drive(libseal, pairs_between)

    # A pre-rotation attestation the adversary will replay at the end.
    replayed = CounterAttestation.sign(
        cluster.group_key, LOG_ID, cluster._committed.get(LOG_ID, 1), epoch=1
    )

    rows = []
    for round_index in range(rotations):
        counter_before = cluster._committed.get(LOG_ID, 0)
        sent_before = libseal.rote.network.stats.sent
        started = time.perf_counter()
        report = coordinator.rotate(f"hygiene round {round_index + 1}")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        _drive(libseal, pairs_between)
        rows.append(
            {
                "epoch": report.to_epoch,
                "converged": report.converged,
                "retired": len(report.retired),
                "increments": cluster._committed.get(LOG_ID, 0) - counter_before,
                "messages": libseal.rote.network.stats.sent - sent_before,
                "rotate_ms": elapsed_ms,
            }
        )

    reply = CounterReply(
        op_id=0, node_id=0, log_id=LOG_ID,
        value=replayed.value, attestation=replayed, op="retrieve",
    )
    assert cluster._max_valid({0: reply}) == 0
    authority = cluster.authority
    return {
        "rows": rows,
        "final_epoch": authority.current_epoch,
        "rotations": authority.rotations,
        "retired_epochs": sum(
            1
            for entry in authority.epochs.values()
            if entry.state is EpochState.RETIRED
        ),
        "blob_migrations": sum(r.epoch_migrations for r in cluster.nodes),
        "replay_rejections": cluster.retired_rejections,
        "unsealable_blobs": _unsealable_blobs(libseal),
        "pairs_ok": (1 + rotations) * pairs_between,
    }


def rotation_wal_replay(seed: int = 11) -> list[dict]:
    """Crash at every coordinator checkpoint; replay must converge."""
    rows = []
    for step in range(1, ROTATION_CHECKPOINTS + 1):
        libseal, coordinator = _build(seed=seed)
        _drive(libseal, 3)
        plan = FaultPlan(
            [FaultEvent("rotation.step", "crash", at=step)],
            scenario=f"bench-rotation-crash-{step}",
        )
        crashed = False
        with _faults.inject(plan):
            try:
                coordinator.rotate("scheduled")
            except InjectedCrash:
                crashed = True
        started = time.perf_counter()
        report = coordinator.resume()
        replay_ms = (time.perf_counter() - started) * 1000.0
        authority = libseal.rote.authority
        active = [
            epoch
            for epoch, entry in authority.epochs.items()
            if entry.state is EpochState.ACTIVE
        ]
        rows.append(
            {
                "crash_step": step,
                "crashed": crashed,
                "replayed": report is not None,
                "active_epochs": len(active),
                "final_epoch": authority.current_epoch,
                "wal_cleared": not coordinator.pending(),
                "unsealable_blobs": _unsealable_blobs(libseal),
                "replay_ms": replay_ms,
            }
        )
    return rows
