"""One tuple stream behind :class:`AuditLog`.

The rows queries see, the rows the hash chain covers and the rows a
snapshot carries are the same objects, and removal decides survival by
row identity. So no sequence of appends, seals, trims, range
retirements, reloads and crashes inside a seal (recovered from the
stored image) may ever make the three disagree — in particular not values that
column affinity rewrites on insert, exact duplicates, or rows a trimming
``UPDATE`` touched, all of which a by-value match loses.
"""

import os
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.audit import AuditLog, HashChain, RoteCluster, SignedHead
from repro.audit.log import Watermark
from repro.audit.persistence import InMemoryStorage
from repro.audit.recovery import RecoveryOutcome, recover_log
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError
from repro import faults
from repro.faults import FaultEvent, FaultPlan, InjectedCrash
from tests.audit.records import encode

KEY = EcdsaPrivateKey.generate(HmacDrbg(seed=b"stream-key"))

SCHEMA = """
CREATE TABLE t (time INTEGER, k TEXT, v INTEGER);
CREATE TABLE u (time INTEGER, x REAL, note);
"""


def make_log(schema=SCHEMA):
    return AuditLog(schema, KEY, RoteCluster(f=1), storage=InMemoryStorage())


def table_rows(log):
    return Counter(
        (name.lower(), tuple(row))
        for name in log.db.table_names()
        for row in log.db.lookup_table(name).rows
    )


def stream_rows(log):
    return Counter((table.lower(), values) for table, values in log.tuples())


def ids_of(log):
    """Every ``(row_id, table, values)`` the log holds, through the public
    watermark API (a watermark below every id, in the live generation)."""
    origin = Watermark(-1, 0, log.trim_generation)
    return sorted(
        (row_id, name.lower(), values)
        for name in log.db.table_names()
        for row_id, values in log.rows_since(name, origin)
    )


def reload(log):
    return AuditLog.load(
        log.serialize(),
        log.schema_sql,
        KEY,
        KEY.public_key(),
        log.rote,
        log.log_id,
        storage=log.storage,
    )


def assert_consistent(log):
    """Tables == stream == a verified reload, ids and head included."""
    assert table_rows(log) == stream_rows(log)
    log.verify(KEY.public_key())
    loaded = reload(log)
    assert table_rows(loaded) == table_rows(log)
    assert list(loaded.tuples()) == list(log.tuples())
    assert ids_of(loaded) == ids_of(log)
    assert loaded.trim_generation == log.trim_generation
    assert loaded.next_row_id == log.next_row_id
    assert loaded.chain.head == log.chain.head
    assert (loaded.latest_time, loaded.time_monotone) == (
        log.latest_time,
        log.time_monotone,
    )
    for name in log.db.table_names():
        live, fresh = log.db.lookup_table(name), loaded.db.lookup_table(name)
        column = live.column_index("time")
        times = [row[column] for row in fresh.rows]
        in_order = all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in times
        ) and all(a <= b for a, b in zip(times, times[1:]))
        # A reload hints exactly the columns that are in order; the live
        # log (which never re-adds a dropped hint) hints no column that is not.
        assert fresh.is_sorted(column) == in_order
        assert in_order or not live.is_sorted(column)


class TestTrimMatchesByIdentity:
    def coerced_log(self):
        log = make_log("CREATE TABLE t (time INTEGER, k TEXT, v INTEGER)")
        for values in [
            (1, "a", "5"),  # text -> INTEGER
            (2, 7, 1),  # number -> TEXT
            (3, "b", 1),
            (3, "b", 1),  # exact duplicate
            (4, "old", 1),
        ]:
            log.append("t", values)
        log.seal_epoch()
        return log

    def test_trim_keeps_coerced_and_duplicate_rows(self):
        log = self.coerced_log()
        assert log.trim(["DELETE FROM t WHERE k = 'old'"]) == 1
        assert list(log.tuples()) == [
            ("t", (1, "a", 5)),
            ("t", (2, "7", 1)),
            ("t", (3, "b", 1)),
            ("t", (3, "b", 1)),
        ]
        assert_consistent(log)

    def test_trimming_update_keeps_the_rows_it_rewrote(self):
        log = self.coerced_log()
        removed = log.trim(
            ["UPDATE t SET v = v + 10 WHERE k = 'b'", "DELETE FROM t WHERE time = 1"]
        )
        assert removed == 1
        assert [values for _, values in log.tuples()] == [
            (2, "7", 1),
            (3, "b", 11),
            (3, "b", 11),
            (4, "old", 1),
        ]
        assert_consistent(log)

    def test_deleting_one_of_two_duplicates_drops_exactly_that_one(self):
        log = self.coerced_log()
        origin = Watermark(-1, 0, log.trim_generation)
        ids = [row_id for row_id, _ in log.rows_since("t", origin)]
        # SQL cannot tell the duplicates apart; a predicate can (it sees
        # the stream in chain order). Drop the second one only.
        seen = []

        def second_duplicate(table, values):
            if values == (3, "b", 1):
                seen.append(values)
                return len(seen) == 2
            return False

        assert log.remove_where(second_duplicate) == 1
        assert [row_id for row_id, _, _ in ids_of(log)] == ids[:3] + ids[4:]
        assert_consistent(log)

    def test_trim_that_deletes_nothing_still_seals_a_new_generation(self):
        log = self.coerced_log()
        sealed, generation = log.epochs_sealed, log.trim_generation
        assert log.trim(["DELETE FROM t WHERE k = 'absent'"]) == 0
        assert log.epochs_sealed == sealed + 1
        assert log.trim_generation == generation + 1

    def test_remove_where_matching_nothing_is_a_no_op(self):
        log = self.coerced_log()
        sealed, generation = log.epochs_sealed, log.trim_generation
        assert log.remove_where(lambda table, values: False) == 0
        assert (log.epochs_sealed, log.trim_generation) == (sealed, generation)

    def test_remove_where_keeps_tables_hints_and_ids(self):
        log = self.coerced_log()
        db, table = log.db, log.db.lookup_table("t")
        assert log.remove_where(lambda _, values: values[0] in (2, 4)) == 2
        assert log.db is db and log.db.lookup_table("t") is table
        assert table.is_sorted(0)
        assert [row_id for row_id, _, _ in ids_of(log)] == [0, 2, 3]
        assert_consistent(log)

    def test_rows_a_trim_query_adds_fail_closed_before_the_seal(self):
        log = self.coerced_log()
        sealed = log.epochs_sealed
        with pytest.raises(IntegrityError):
            log.trim(["INSERT INTO t VALUES (9, 'smuggled', 1)"])
        assert log.epochs_sealed == sealed

    def test_snapshot_with_an_uncoerced_value_fails_closed(self):
        # An older build chained and stored values as logged. Such a
        # snapshot used to load into a log whose table (coerced) and
        # chained payloads (not) disagreed. The chain covers the stored
        # bytes, and the row must enter its table as stored.
        rote = RoteCluster(f=1)
        chain = HashChain()
        chain.append("t", [1, "a", "5"])
        head = SignedHead(chain.head, rote.increment("libseal-log"), 1)  # unsigned
        schema = "CREATE TABLE t (time INTEGER, k TEXT, v INTEGER)"
        doc = {
            "log_id": "libseal-log",
            "schema": schema,
            "payloads": [["t", [1, "a", "5"]]],
            "watermark_state": {
                "next_row_id": 1,
                "payload_ids": [0],
                "trim_generation": 0,
                "latest_time": 1,
                "time_monotone": True,
            },
            "head": {
                "head_hash": head.head_hash.hex(),
                "counter": head.counter_value,
                "count": head.entry_count,
                "signature": None,
            },
        }
        with pytest.raises(IntegrityError, match="not the row its table holds"):
            AuditLog.load(
                encode(doc, KEY), schema, KEY, KEY.public_key(), rote, "libseal-log"
            )


# ----------------------------------------------------------------------
# Stateful: any interleaving keeps tables == stream == reload
# ----------------------------------------------------------------------

times = st.integers(min_value=0, max_value=40)
t_values = st.tuples(
    st.one_of(times, times.map(str)),
    st.one_of(st.sampled_from(["a", "b", "old"]), st.integers(0, 9)),
    st.one_of(st.integers(0, 3), st.sampled_from(["1", "2", "x"]), st.none()),
)
u_values = st.tuples(
    times,
    st.one_of(st.integers(0, 3), st.sampled_from([0.5, 2.5]), st.just("1.5")),
    st.one_of(st.integers(0, 3), st.sampled_from(["n", "7"]), st.binary(max_size=3)),
)

#: A crash inside a seal, and how recovery classifies it.
CRASHES = {
    "crash_before_intent": RecoveryOutcome.CLEAN_RESUME,
    "crash_after_intent": RecoveryOutcome.CLEAN_RESUME,
    "crash_after_increment": RecoveryOutcome.IN_FLIGHT_DISCARDED,
    "crash_after_save": RecoveryOutcome.CLEAN_RESUME,
}

TRIMS = [
    "DELETE FROM t WHERE k = 'old'",
    "DELETE FROM t WHERE v = 1",
    "DELETE FROM t WHERE k = '7'",
    "DELETE FROM t WHERE time NOT IN (SELECT MAX(time) FROM t GROUP BY k)",
    "UPDATE t SET v = 2 WHERE k = 'a'",
    "UPDATE t SET k = 5 WHERE v = 2",
    "DELETE FROM u WHERE x > 1",
    "UPDATE u SET note = 'kept' WHERE x < 1",
    "DELETE FROM u WHERE note = 'absent'",
]


class LogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = make_log()
        self.dirty = False

    @rule(values=t_values)
    def append_t(self, values):
        self.log.append("t", values)
        self.dirty = True

    @rule(values=u_values)
    def append_u(self, values):
        self.log.append("U", values)  # relation names are case-insensitive
        self.dirty = True

    @rule(queries=st.lists(st.sampled_from(TRIMS), min_size=1, max_size=3))
    def trim(self, queries):
        before = sum(table_rows(self.log).values())
        generation = self.log.trim_generation
        removed = self.log.trim(queries)
        assert removed == before - sum(table_rows(self.log).values())
        assert self.log.trim_generation == generation + 1
        self.dirty = False

    @rule(modulus=st.integers(2, 4), residue=st.integers(0, 3))
    def remove_where(self, modulus, residue):
        before = ids_of(self.log)
        doomed = [e for e in before if e[2][0] % modulus == residue]
        removed = self.log.remove_where(
            lambda table, values: values[0] % modulus == residue
        )
        assert removed == len(doomed)
        assert ids_of(self.log) == [e for e in before if e not in doomed]
        if removed:
            self.dirty = False

    @rule()
    def continue_from_a_reload(self):
        self.seal_if_dirty()
        self.log = reload(self.log)

    @rule()
    def seal(self):
        self.log.seal_epoch()
        self.dirty = False

    @rule(
        crash=st.sampled_from(sorted(CRASHES)),
        queries=st.none() | st.lists(st.sampled_from(TRIMS), min_size=1, max_size=2),
    )
    def crash_and_recover(self, crash, queries):
        """A crash inside a seal (a trim's, when ``queries``), then recovery
        from the stored image: the last completed seal's state, or the
        crashed seal's once its head landed. (The completed seal first
        also writes the image whole if the log came from a reload, whose
        image storage does not hold.)"""
        self.seal()
        before = ids_of(self.log)
        with faults.inject(FaultPlan([FaultEvent("audit.seal", crash)])):
            with pytest.raises(InjectedCrash):
                if queries is None:
                    self.log.seal_epoch()
                else:
                    self.log.trim(queries)
        after = ids_of(self.log)
        report = recover_log(
            self.log.storage, self.log.schema_sql, KEY, KEY.public_key(),
            self.log.rote, self.log.log_id,
        )
        assert report.outcome is CRASHES[crash], report.describe()
        assert ids_of(report.log) == (after if crash == "crash_after_save" else before)
        self.log = report.log

    def seal_if_dirty(self):
        if self.dirty or self.log.signed_head is None:
            self.log.seal_epoch()
            self.dirty = False

    @invariant()
    def tables_stream_and_reload_agree(self):
        self.seal_if_dirty()
        assert_consistent(self.log)


TestLogMachine = LogMachine.TestCase
TestLogMachine.settings = settings(
    # Tier-1 keeps this bounded; the nightly raises it.
    max_examples=int(os.environ.get("REPRO_STATEFUL_EXAMPLES", "20")),
    stateful_step_count=12,
    deadline=None,
)
