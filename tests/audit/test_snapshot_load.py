"""Loading a snapshot: one pass, no SQL per row, the tables INSERT builds.

:meth:`AuditLog.load` puts each stored row straight into its table and
hashes the stored tuple bytes into the chain. Two things pin that down:
operation counts that must not grow with the log (SQL statements) or are
fixed per tuple (encodings: one per append, none in a seal or a load, one
in a full verification), and a reference built the way rows used to arrive —
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
        assert encodings.calls == 0  # the stored bytes are hashed as they are
        loaded.verify(KEY.public_key())
        assert encodings.calls == n

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


class TestOneEncodingPerTuple:
    """A tuple is encoded once, when it is appended: a seal writes those
    bytes as they are and a restart hashes them as stored, so the only
    other encoding is a full verification's recomputation of the chain."""

    @staticmethod
    def count(monkeypatch):
        from repro.audit import log as audit_log

        owners = (hashchain, audit_log)
        counters = [Counting(monkeypatch, owner, "encode_tuple") for owner in owners]
        return lambda: sum(counter.calls for counter in counters)

    def test_append_encodes_once_and_a_seal_never(self, monkeypatch):
        log = AuditLog(SCHEMA, KEY, RoteCluster(f=1), storage=InMemoryStorage())
        encodings = self.count(monkeypatch)
        rows = mixed_rows(60, seed=3)
        # The first seal writes the image whole, the later ones append.
        for batch in (rows[:20], rows[20:40], rows[40:]):
            before = encodings()
            for table, values in batch:
                log.append(table, values)
            assert encodings() == before + len(batch)
            log.seal_epoch()
            assert encodings() == before + len(batch)

    def test_restart_encodes_each_tuple_at_most_once(self, monkeypatch):
        from repro.audit.recovery import RecoveryOutcome
        from repro.core import LibSeal
        from repro.ssm import GitSSM
        from repro.workloads import GitReplayWorkload

        storage, rote = InMemoryStorage(), RoteCluster(f=1)
        live = LibSeal(GitSSM(), rote=rote, storage=storage)
        GitReplayWorkload(live, seed=5).run(20)
        tuples = len(live.audit_log.chain)
        encodings = self.count(monkeypatch)
        recovered, report = LibSeal.recover(
            GitSSM(), storage, signing_key=live.signing_key, rote=rote
        )
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert encodings() == 0
        recovered.verify_log()
        assert 0 < encodings() <= tuples

    def test_trim_encodes_each_survivor_once(self, monkeypatch):
        """The rebuilt chain and the rewritten image share one encoding of
        each survivor (a trim once encoded every survivor twice)."""
        log = AuditLog(SCHEMA, KEY, RoteCluster(f=1), storage=InMemoryStorage())
        for index in range(100):
            log.append("t", (index, f"k{index}", index, 0.5, None))
        log.seal_epoch()
        encodings = self.count(monkeypatch)
        assert log.trim(["DELETE FROM t WHERE v % 2 = 1"]) == 50
        assert encodings() == 50
        reference = hashchain.HashChain()
        reference.rebuild(log.tuples())
        assert (log.chain.head, len(log.chain)) == (reference.head, 50)
        assert log.storage.load() == log.serialize()
        loaded = load(log, log.storage.load())
        assert list(loaded.tuples()) == list(log.tuples())
