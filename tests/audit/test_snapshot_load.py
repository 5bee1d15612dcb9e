"""Loading a snapshot: one pass, no SQL per row, the tables INSERT builds.

:meth:`AuditLog.load` puts each stored row straight into its table and
computes the chain once. Two things pin that down: operation counts that
must not grow with the log (SQL statements) or must equal it exactly
(tuple encodings), and a reference built the way rows used to arrive —
``INSERT … VALUES (?, …)`` through :meth:`Database.execute` — that the
loaded tables, their sorted hints and the log's clock must equal.
"""

import random

import pytest

from repro.audit import AuditLog, RoteCluster
from repro.audit import hashchain
from repro.audit.persistence import InMemoryStorage
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError
from repro.sealdb import Database
from tests.audit.records import decode, encode

KEY = EcdsaPrivateKey.generate(HmacDrbg(seed=b"snapshot-load"))

SCHEMA = """
CREATE TABLE t (time INTEGER, k TEXT, v INTEGER, x REAL, note);
CREATE TABLE p (id INTEGER PRIMARY KEY, time INTEGER, v);
"""


def mixed_rows(n, seed):
    """``n`` tuples over both tables: numeric text into INTEGER/REAL,
    numbers into TEXT, floats, bytes, NULLs, exact duplicates, and one
    clock step backwards half-way."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        time = i if i != n // 2 else i - 3
        if i % 9 == 8:
            duplicate = rows[-1][0] == "t"
            rows.append(rows[-1] if duplicate else ("t", (time, "a", 1, 0.5, None)))
        elif i % 5 == 4:
            v = rng.choice([b"\x00\xff", 2.5, "7", None])
            rows.append(("p", (str(i) if i % 2 else i, time, v)))
        else:
            rows.append(("t", (
                str(time) if i % 7 == 3 else time,
                rng.choice(["a", 7, 2.5, None, "b"]),
                rng.choice([1, "5", "x", 1.0, 2.5, None]),
                rng.choice([0.5, 2, "1.5", "y", None]),
                rng.choice([b"\x01", 3, "n", 1.25, None]),
            )))
    return rows


def sealed_log(n):
    log = AuditLog(SCHEMA, KEY, RoteCluster(f=1), storage=InMemoryStorage())
    for table, values in mixed_rows(n, seed=n):
        log.append(table, values)
    log.seal_epoch()
    return log


def load(log, blob=None):
    return AuditLog.load(
        blob if blob is not None else log.storage.load(),
        SCHEMA, KEY, KEY.public_key(), log.rote, log.log_id,
    )


def sql_reference(n):
    """The tables ``INSERT … VALUES (?, …)`` builds from the same tuples,
    with the log's sorted hints set the way the log sets them."""
    db = Database()
    db.executescript(SCHEMA)
    for name in db.table_names():
        db.lookup_table(name).mark_sorted(1 if name == "p" else 0)
    for table, values in mixed_rows(n, seed=n):
        marks = ", ".join("?" * len(values))
        db.execute(f"INSERT INTO {table} VALUES ({marks})", values)
    return db


def typed(rows):
    return [[(type(value).__name__, value) for value in row] for row in rows]


class Counting:
    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("n", [50, 500])
class TestOnePass:
    def test_operation_counts(self, monkeypatch, n):
        log = sealed_log(n)
        blob = log.storage.load()
        statements = Counting(monkeypatch, Database, "execute")
        encodings = Counting(monkeypatch, hashchain, "encode_tuple")
        loaded = load(log, blob)
        assert statements.calls == 0  # the schema is a script, rows are not SQL
        assert encodings.calls == n
        loaded.verify(KEY.public_key())
        assert encodings.calls == 2 * n

    def test_loaded_tables_equal_the_sql_reference(self, n):
        log = sealed_log(n)
        loaded = load(log)
        reference = sql_reference(n)
        for name in reference.table_names():
            ours, theirs = loaded.db.lookup_table(name), reference.lookup_table(name)
            assert typed(ours.rows) == typed(theirs.rows)
            time_col = 1 if name == "p" else 0
            assert ours.is_sorted(time_col) == theirs.is_sorted(time_col)
        assert loaded.db.lookup_table("libseal_events").rows == []
        assert list(loaded.tuples()) == list(log.tuples())
        assert loaded.chain.head == log.chain.head
        assert (loaded.latest_time, loaded.time_monotone) == (
            log.latest_time, log.time_monotone,
        )
        assert not loaded.time_monotone  # the clock stepped back once
        assert loaded.db.lookup_table("p").is_sorted(1)

    def test_duplicate_primary_key_fails_closed(self, n):
        log = sealed_log(n)
        doc = decode(log.storage.load(), KEY, log.log_id, SCHEMA)
        first_p = next(entry for entry in doc["payloads"] if entry[0] == "p")
        doc["payloads"].append(first_p)
        state = doc["watermark_state"]
        state["payload_ids"].append(state["next_row_id"])
        state["next_row_id"] += 1
        with pytest.raises(IntegrityError, match="PRIMARY KEY"):
            load(log, encode(doc, KEY))  # a forged, re-MAC'd image


class TestRecoverBuildsOnce:
    """``LibSeal.recover`` builds one log and one checker: the snapshot's
    log when there is one, a fresh log when there is none."""

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_one_log_one_checker(self, monkeypatch, snapshot):
        from repro.core import LibSeal
        from repro.core import libseal as core_libseal
        from repro.ssm import GitSSM
        from repro.workloads import GitReplayWorkload

        storage, rote = InMemoryStorage(), RoteCluster(f=1)
        if snapshot:
            live = LibSeal(GitSSM(), rote=rote, storage=storage)
            GitReplayWorkload(live, seed=3).run(4)
        logs = Counting(monkeypatch, AuditLog, "__init__")
        checkers = Counting(monkeypatch, core_libseal, "InvariantChecker")
        recovered, report = LibSeal.recover(GitSSM(), storage, rote=rote)
        assert (logs.calls, checkers.calls) == (1, 1)
        assert (report.log is not None) == snapshot
        if snapshot:
            assert recovered.audit_log is report.log
            assert recovered.pairs_logged == live.pairs_logged
        assert recovered.checker.audit_log is recovered.audit_log
        assert recovered.check_invariants(force_full=True).ok
