"""Measurement functions for the crash-recovery benchmark.

Two questions the paper's deployment story raises but does not measure:

- how long does a LibSEAL instance take to come back after a crash, as a
  function of log size (recovery re-verifies the whole hash chain, so it
  is expected to be linear in entries);
- what does ROTE availability look like under ``f`` crashed counter
  nodes — how much retry/backoff latency does the bounded-retry loop add,
  and how quickly does the ``f + 1`` case fail over into degraded mode.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.audit.log import AuditLog
from repro.audit.persistence import LogStorage
from repro.audit.recovery import recover_log
from repro.audit.rote import RoteCluster
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import QuorumUnavailableError

SCHEMA = "CREATE TABLE updates(time INTEGER, note TEXT)"


def recovery_time_vs_log_size(
    entry_counts: tuple[int, ...] = (128, 512, 2048), epochs: int = 4
) -> list[dict]:
    """Wall-clock recovery time after a simulated crash, per log size."""
    rows = []
    for entries in entry_counts:
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"bench-recovery"))
        rote = RoteCluster(f=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.bin"
            log = AuditLog(SCHEMA, key, rote, storage=LogStorage(path))
            per_epoch = entries // epochs
            for index in range(entries):
                log.append("updates", (index, f"entry-{index}"))
                if (index + 1) % per_epoch == 0:
                    log.seal_epoch()
            if log.signed_head is None or log.chain.head != log.signed_head.head_hash:
                log.seal_epoch()
            started = time.perf_counter()
            report = recover_log(
                LogStorage(path), SCHEMA, key, key.public_key(), rote
            )
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            rows.append(
                {
                    "entries": entries,
                    "outcome": report.outcome.value,
                    "recovered_entries": report.entries,
                    "recovery_ms": elapsed_ms,
                    "us_per_entry": elapsed_ms * 1000.0 / entries,
                }
            )
    return rows


def availability_under_crashes(f: int = 1, increments: int = 50) -> list[dict]:
    """ROTE increment availability and retry cost per fault regime."""
    rows = []
    regimes = [
        ("healthy", 0, 0),
        (f"{f} crashed", f, 0),
        (f"{f} crashed + slow node", f, 2),
        (f"{f + 1} crashed", f + 1, 0),
    ]
    for label, crashed, slow_rounds in regimes:
        cluster = RoteCluster(f=f)
        for node_id in range(crashed):
            cluster.crash(node_id)
        succeeded = 0
        failed = 0
        started = time.perf_counter()
        for index in range(increments):
            if slow_rounds and index % 5 == 0:
                cluster.delay(crashed, rounds=slow_rounds)
            try:
                cluster.increment("log")
                succeeded += 1
            except QuorumUnavailableError:
                failed += 1
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "regime": label,
                "attempts": increments,
                "succeeded": succeeded,
                "failed": failed,
                "retry_rounds": cluster.retry_rounds,
                "backoff_ms": round(cluster.backoff_ms_total, 3),
                "metered_ms": round(cluster.total_latency_ms, 3),
                "wall_ms": round(elapsed_ms, 3),
            }
        )
    return rows
