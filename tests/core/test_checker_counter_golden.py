"""Checker counters on seeded traffic, pinned for every shipped SSM.

Seeded git, Dropbox, ownCloud and messaging traffic is driven into a
``LibSeal`` in five chunks, with an incremental check after every chunk, a
trim after the third and a forced full check at the end (Dropbox also
omits a live file from its listings half-way, so that check finds
violations). For every check the test records, per invariant, its mode,
``rows_scanned``, ``rows_vectorized``, the ``index_probes`` its statement
made and its violation count, and requires equality with
``golden_checker_counters.json``.

These counters price checking in the cost model and the bench gate, so an
executor change that is meant to be faster, not different, must leave
them exactly as they are. The golden was captured with::

    PYTHONPATH=src python tests/core/test_checker_counter_golden.py

A change that moves these numbers on purpose recaptures and says why.
"""

import json
from pathlib import Path

import pytest

from repro.core import LibSeal
from repro.core.libseal import LibSealConfig
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM, OwnCloudSSM
from repro.workloads.dropbox_ops import DropboxOpsWorkload
from repro.workloads.git_replay import GitReplayWorkload
from repro.workloads.messaging_traffic import MessagingWorkload
from repro.workloads.owncloud_edits import OwnCloudEditWorkload

GOLDEN = Path(__file__).with_name("golden_checker_counters.json")
CHUNKS, CHUNK = 5, 60

SERVICES = {
    "git": (GitSSM, lambda ls: GitReplayWorkload(ls, seed=3)),
    "dropbox": (DropboxSSM, lambda ls: DropboxOpsWorkload(ls, seed=3)),
    "owncloud": (OwnCloudSSM, lambda ls: OwnCloudEditWorkload(ls, seed=3)),
    "messaging": (MessagingSSM, lambda ls: MessagingWorkload(ls, seed=3)),
}


def _check(libseal: LibSeal, force_full: bool = False) -> list:
    """One check; per invariant [name, mode, scanned, vectorized, probes,
    violations]."""
    db = libseal.audit_log.db
    probes: list[int] = []
    execute_ast = db.execute_ast

    def counted(*args, **kwargs):
        before = db.scan_stats.index_probes
        try:
            return execute_ast(*args, **kwargs)
        finally:
            probes.append(db.scan_stats.index_probes - before)

    db.execute_ast = counted
    try:
        outcome = libseal.check_invariants(force_full=force_full)
    finally:
        del db.execute_ast
    ran = iter(probes)
    rows = [
        [s.name, s.mode, s.rows_scanned, s.rows_vectorized,
         0 if s.mode == "skip" else next(ran), s.violations]
        for s in outcome.invariant_stats
    ]
    assert next(ran, None) is None, "a statement ran that no invariant reported"
    return rows


def _omit_a_listed_file(workload: DropboxOpsWorkload) -> None:
    account = next(a for a in workload.accounts if workload._live_files[a])
    workload.service.server.attack_omit_file(account, workload._live_files[account][0])


def counters(service: str) -> list:
    ssm_cls, make_workload = SERVICES[service]
    libseal = LibSeal(ssm_cls(), LibSealConfig(group_seal_pairs=16))
    workload = make_workload(libseal)
    checks = []
    for chunk in range(CHUNKS):
        if service == "dropbox" and chunk == 3:
            _omit_a_listed_file(workload)
        workload.run(CHUNK)
        libseal.flush_pending()
        checks.append(_check(libseal))
        if chunk == 2:
            libseal.trim()
    checks.append(_check(libseal, force_full=True))
    return checks


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_checker_counters_match_the_golden(service):
    assert counters(service) == json.loads(GOLDEN.read_text())[service]


def test_the_golden_sees_probes_scans_and_violations():
    golden = json.loads(GOLDEN.read_text())
    rows = [row for checks in golden.values() for check in checks for row in check]
    assert sum(row[2] for row in rows) > 0
    assert sum(row[4] for row in rows) > 0
    assert sum(row[5] for row in golden["dropbox"][-1]) > 0


if __name__ == "__main__":
    document = {service: counters(service) for service in sorted(SERVICES)}
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
