"""Every crash state of the record image recovers, under a weak disk model.

A seeded run (``tests/audit/crash_states.py``) records every storage call
through the ``repro.audit.persistence.fs`` seam, and each state the disk
may hold after power loss at any point of it — unsynced writes dropped,
torn or reordered; a directory entry lost until its directory fsync — is
recovered from scratch. No state may raise, leave the outcome space, be
classified as an attack (every crash here is benign), or recover a log
older than the last seal the enclave acknowledged.

The bounded set tears each unsynced write once, in half; set
``REPRO_CRASH_FULL=1`` for the full space (a tear every 64 bytes and at
the edges of each write, over three more seeds), as the nightly run does.
The write-ahead rule itself is stated directly in
``tests/audit/test_persistence.py::TestSidecarEntryDurability``.
"""

import os

import pytest

from repro.audit.log import HEAD_RECORD, SIGN_EVERY
from tests.audit.crash_states import KEY, LOG, TickSSM, check_states, record_run
from tests.audit.records import records

#: An unsigned head record's content; a signed one adds the signature.
HEAD_BYTES = 74

FULL = os.environ.get("REPRO_CRASH_FULL") == "1"


def test_the_run_covers_every_operation(tmp_path):
    ops = record_run(tmp_path)
    kinds = {op[0] for op in ops}
    assert kinds >= {
        "create", "write", "fsync", "fsync-dir", "replace", "truncate",
        "increment", "ack",
    }
    names = {op[1] for op in ops if op[0] in ("write", "truncate")}
    assert names >= {LOG, LOG + ".tmp", LOG + ".rotation", LOG + ".membership"}
    # Seals on both sides of a cadence value: the image holds unsigned head
    # records and one that stores its signature.
    acked = [op[1] for op in ops if op[0] == "ack"]
    assert acked == list(range(1, SIGN_EVERY + 2))
    heads = [
        len(content)
        for kind, content in records((tmp_path / LOG).read_bytes(), KEY, schema=TickSSM.schema_sql)
        if kind == HEAD_RECORD
    ]
    assert heads.count(HEAD_BYTES + 64) == 1 and heads.count(HEAD_BYTES) > 1


def test_every_crash_state_recovers(tmp_path):
    (tmp_path / "run").mkdir()
    ops = record_run(tmp_path / "run")
    checked, violations = check_states(ops, tmp_path, full=FULL)
    assert checked > 50
    assert violations == [], violations[0][3]


def test_negative_control_a_head_without_fsync_is_caught(tmp_path):
    (tmp_path / "run").mkdir()
    ops = record_run(tmp_path / "run", negative="head")
    _, violations = check_states(ops, tmp_path)
    assert any("acknowledged seal" in why for *_, why in violations)


@pytest.mark.parametrize("negative", ["dir-first", "dir-compaction"])
def test_negative_control_a_rename_without_directory_fsync_is_caught(tmp_path, negative):
    (tmp_path / "run").mkdir()
    ops = record_run(tmp_path / "run", negative=negative)
    assert ops.count(("fsync-dir",)) < record_run_dir_fsyncs(tmp_path)
    _, violations = check_states(ops, tmp_path)
    assert violations, negative


def record_run_dir_fsyncs(tmp_path):
    (tmp_path / "control").mkdir()
    return record_run(tmp_path / "control").count(("fsync-dir",))


@pytest.mark.skipif(not FULL, reason="full crash space: REPRO_CRASH_FULL=1")
@pytest.mark.parametrize("seed", [11, 23, 31])
def test_full_space_with_other_seeds(tmp_path, seed):
    (tmp_path / "run").mkdir()
    ops = record_run(tmp_path / "run", seed=seed)
    _, violations = check_states(ops, tmp_path, full=True)
    assert violations == [], violations[0][3]
