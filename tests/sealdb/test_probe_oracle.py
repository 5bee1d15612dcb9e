"""Correlated probes against two oracles: stdlib ``sqlite3`` and the SELECT.

A subquery of one of the three probe shapes — the latest row before a
bound (``ORDER BY time DESC LIMIT 1``), ``MAX(time)`` below a bound, and
``EXISTS`` — is answered from the index bucket plus a bisect instead of
running a SELECT (:func:`repro.sealdb.planner.plan_probe`). Hypothesis
drives all three through seeded inserts (in time order, with ties, and out
of order so the sorted hint is lost), deletes, trims and ``UPDATE``s of
``time``, with NULL, text and real bounds, composite and single keys,
aliased and unqualified columns, and a ``LIMIT 1 OFFSET 1`` that must
decline.

Every answer must equal SQLite's. Where rows tie on the top time SQLite
leaves the order unspecified, so there the oracle is SealDB's own SELECT:
a twin database whose probe classifier is patched to decline everything.
The twin's answer must equal the probing database's on every query, in
value and type, and while the sorted hint holds the probe may only ever
scan fewer rows. Tier-1 runs
40 examples; the nightly raises ``REPRO_PROBE_EXAMPLES``.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sealdb import Database, planner
from tests.sqlite_oracle import assert_same_multiset

SCHEMA = """
CREATE TABLE log(time INTEGER, k1 TEXT, k2 TEXT, v TEXT);
CREATE TABLE q(time INTEGER, k1 TEXT, k2 TEXT, b);
"""

#: The latest-row shape: ties on the top time are answered by the
#: first-stored row, which SQLite does not promise. Each query names the
#: key its bucket is grouped by, so the comparison with SQLite can skip
#: logs holding a tie there.
LATEST = [
    (
        "SELECT q.time, (SELECT l.v FROM log l WHERE l.k1 = q.k1 AND l.k2 = q.k2"
        " AND l.time < q.b ORDER BY l.time DESC LIMIT 1) FROM q",
        "k1, k2",
    ),
    (
        "SELECT time, (SELECT v FROM log WHERE k1 = q.k1 AND time <= q.b"
        " ORDER BY time DESC LIMIT 1) FROM q",
        "k1",
    ),
    (
        "SELECT q.time FROM q WHERE q.k2 != (SELECT l.k2 FROM log AS l"
        " WHERE q.k1 = l.k1 ORDER BY l.time DESC LIMIT 1)",
        "k1",
    ),
    # Declines: OFFSET skips the row a probe would read.
    (
        "SELECT q.time, (SELECT l.v FROM log l WHERE l.k1 = q.k1 AND q.b > l.time"
        " ORDER BY l.time DESC LIMIT 1 OFFSET 1) FROM q",
        "k1",
    ),
]

EXACT = [
    "SELECT q.time, (SELECT MAX(time) FROM log WHERE k1 = q.k1 AND time < q.b) FROM q",
    "SELECT q.time, (SELECT MAX(l.time) FROM log l WHERE l.k1 = q.k1"
    " AND l.k2 = q.k2 AND l.time <= q.b) FROM q",
    "SELECT q.time, (SELECT MAX(l.time) FROM log AS l WHERE l.k2 = q.k2) FROM q",
    "SELECT q.time FROM q WHERE NOT EXISTS (SELECT 1 FROM log l WHERE l.k1 = q.k1"
    " AND l.k2 = q.k2 AND l.time <= q.b)",
    "SELECT q.time FROM q WHERE EXISTS (SELECT * FROM log"
    " WHERE k1 = q.k1 AND time < q.b)",
    "SELECT q.time, EXISTS (SELECT l.v FROM log l WHERE l.k2 = q.k2) FROM q",
]

KEYS = st.sampled_from(["a", "b", "c", None])
#: Bounds: real numbers around the clock, NULL, and text (never numeric
#: text, where DESIGN §5's comparison-affinity deviation would answer).
BOUNDS = st.one_of(
    st.integers(-2, 30), st.none(), st.sampled_from(["x", "zz"]), st.just(7.5)
)
OPS = st.one_of(
    st.tuples(st.just("append"), KEYS, st.sampled_from(["x", "y"]), st.integers(0, 2)),
    st.tuples(st.just("late"), KEYS, st.sampled_from(["x", "y"]), st.integers(1, 4)),
    st.tuples(st.just("outer"), KEYS, st.sampled_from(["x", "y"]), BOUNDS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("trim")),
    st.tuples(st.just("retime"), KEYS),
    st.tuples(st.just("remark")),
)


@contextmanager
def no_probes(monkeypatch):
    """Run SealDB's generic SELECT path for every subquery."""
    with monkeypatch.context() as patch:
        patch.setattr(planner, "plan_probe", lambda *args: None)
        yield


class Engines:
    """The probing database, its no-probe twin, and SQLite, fed alike."""

    def __init__(self, monkeypatch):
        import sqlite3

        self.monkeypatch = monkeypatch
        self.seal, self.twin = Database(), Database()
        self.lite = sqlite3.connect(":memory:")
        for db in (self.seal, self.twin):
            db.executescript(SCHEMA)
            db.lookup_table("log").mark_sorted(0)
        self.lite.executescript(SCHEMA)
        self.clock = 0
        self.hint_ever_lost = False

    def run(self, sql, params=()):
        self.lite.execute(sql, params)
        self.seal.execute(sql, params)
        with no_probes(self.monkeypatch):
            self.twin.execute(sql, params)
        if not self.seal.lookup_table("log").is_sorted(0):
            self.hint_ever_lost = True

    def apply(self, op):
        kind = op[0]
        if kind == "append":
            _, k1, k2, step = op
            self.clock += step  # step 0: a tie on the top time
            row = (self.clock, k1, k2, f"v{self.clock}")
            self.run("INSERT INTO log VALUES (?, ?, ?, ?)", row)
        elif kind == "late":  # out of order: the sorted hint is lost
            _, k1, k2, back = op
            row = (self.clock - back, k1, k2)
            self.run("INSERT INTO log VALUES (?, ?, ?, 'late')", row)
        elif kind == "outer":
            _, k1, k2, bound = op
            self.run("INSERT INTO q VALUES (?, ?, ?, ?)", (self.clock, k1, k2, bound))
        elif kind == "delete":
            self.run("DELETE FROM log WHERE k1 = ?", (op[1],))
        elif kind == "trim":
            self.run(
                "DELETE FROM log WHERE time NOT IN"
                " (SELECT MAX(time) FROM log GROUP BY k1, k2)"
            )
        elif kind == "retime":  # the hint on time is dropped
            self.run("UPDATE log SET time = time + 1 WHERE k1 = ?", (op[1],))
        else:  # re-verified like AuditLog's install-time hint
            for db in (self.seal, self.twin):
                db.lookup_table("log").mark_sorted(0)

    def check(self, sql, tie_key=None):
        seal = self.seal.execute(sql)
        with no_probes(self.monkeypatch):
            twin = self.twin.execute(sql)
        assert [tuple(map(repr, row)) for row in seal.rows] == [
            tuple(map(repr, row)) for row in twin.rows
        ], sql
        if not self.hint_ever_lost:
            # Scan plans are memoised with the hint they were made under,
            # and the twin plans subqueries the probing side never does;
            # once a hint has come and gone the two may hold different
            # (equally exact) plans, so only then can the counts differ.
            assert seal.rows_scanned <= twin.rows_scanned, sql
        tied = tie_key is not None and self.lite.execute(
            f"SELECT 1 FROM log GROUP BY {tie_key}, time HAVING COUNT(*) > 1"
        ).fetchone()
        if not tied:
            assert_same_multiset(seal.rows, self.lite.execute(sql).fetchall())
        return seal, twin


@settings(
    max_examples=int(os.environ.get("REPRO_PROBE_EXAMPLES", "40")), deadline=None
)
@given(ops=st.lists(OPS, min_size=1, max_size=30))
def test_probe_shapes_match_sqlite_and_select(ops):
    with pytest.MonkeyPatch.context() as monkeypatch:
        engines = Engines(monkeypatch)
        for i, op in enumerate(ops):
            engines.apply(op)
            if i % 5 == 4 or i == len(ops) - 1:
                for sql, key in LATEST:
                    engines.check(sql, key)
                for sql in EXACT:
                    engines.check(sql)


# --------------------------------------------------------------------------
# The rules, one at a time
# --------------------------------------------------------------------------

LATEST_BLOCKS = LATEST[0][0]
MAX_BELOW = EXACT[0]
NOT_EXISTS = EXACT[3]


def _engines(monkeypatch, log_rows, outer_rows):
    engines = Engines(monkeypatch)
    for row in log_rows:
        engines.run("INSERT INTO log VALUES (?, ?, ?, ?)", row)
    for row in outer_rows:
        engines.run("INSERT INTO q VALUES (?, ?, ?, ?)", row)
    return engines


def test_ties_answer_with_the_first_stored_row(monkeypatch):
    engines = _engines(
        monkeypatch,
        [(1, "a", "x", "old"), (2, "a", "x", "first"), (2, "a", "x", "second")],
        [(3, "a", "x", 3), (4, "a", "x", 2)],
    )
    seal, _ = engines.check(LATEST_BLOCKS)
    assert seal.rows == [(3, "first"), (4, "old")]


def test_probe_counts_one_lookup_and_at_most_one_row(monkeypatch):
    engines = _engines(
        monkeypatch,
        [(t, "a", "x", f"v{t}") for t in range(1, 9)],
        [(9, "a", "x", 5), (9, "a", "x", 0), (9, "b", "x", 5)],
    )
    probes = engines.seal.scan_stats.index_probes
    seal, twin = engines.check(LATEST_BLOCKS)
    # Three outer rows; one probe each; only the first finds a row. The
    # SELECT cuts its bucket at the bound too, then reads every row below.
    assert engines.seal.scan_stats.index_probes - probes == 3
    assert seal.rows_scanned == 3 + 1
    assert twin.rows_scanned == 3 + 4
    assert seal.rows == [(9, "v4"), (9, None), (9, None)]


def test_max_over_no_rows_is_null(monkeypatch):
    engines = _engines(
        monkeypatch, [(5, "a", "x", "v")], [(6, "a", "x", 5), (6, "c", "x", 9)]
    )
    seal, _ = engines.check(MAX_BELOW)
    assert seal.rows == [(6, None), (6, None)]


@pytest.mark.parametrize("bound", [None, "x"])
def test_null_and_text_bounds_decline(monkeypatch, bound):
    engines = _engines(
        monkeypatch,
        [(t, "a", "x", f"v{t}") for t in range(1, 6)],
        [(6, "a", "x", bound)],
    )
    for sql in (LATEST_BLOCKS, MAX_BELOW, NOT_EXISTS):
        seal, twin = engines.check(sql)
        assert seal.rows_scanned == twin.rows_scanned  # the SELECT ran


@pytest.mark.parametrize(
    "mutation",
    [
        "INSERT INTO log VALUES (0, 'b', 'x', 'late')",
        "UPDATE log SET time = time WHERE k1 = 'a'",
    ],
)
def test_lost_sorted_hint_declines(monkeypatch, mutation):
    engines = _engines(
        monkeypatch,
        [(t, "a", "x", f"v{t}") for t in range(1, 6)],
        [(6, "a", "x", 4)],
    )
    engines.run(mutation)
    assert not engines.seal.lookup_table("log").is_sorted(0)
    for sql in (LATEST_BLOCKS, MAX_BELOW, NOT_EXISTS):
        seal, twin = engines.check(sql)
        assert seal.rows_scanned == twin.rows_scanned


def test_delete_invalidates_the_bucket_index(monkeypatch):
    engines = _engines(
        monkeypatch,
        [(t, "a" if t % 2 else "b", "x", f"v{t}") for t in range(1, 9)],
        [(9, "a", "x", 8)],
    )
    assert engines.check(LATEST_BLOCKS)[0].rows == [(9, "v7")]
    engines.run("DELETE FROM log WHERE time > 4")
    assert engines.check(LATEST_BLOCKS)[0].rows == [(9, "v3")]


def test_offset_declines(monkeypatch):
    engines = _engines(
        monkeypatch,
        [(t, "a", "x", f"v{t}") for t in range(1, 6)],
        [(6, "a", "x", 6)],
    )
    seal, twin = engines.check(LATEST[3][0])
    assert seal.rows == [(6, "v4")]
    assert seal.rows_scanned == twin.rows_scanned


def test_nan_time_drops_the_sorted_hint():
    # INTEGER affinity parses 'nan' into a float NaN, which no bisect can
    # order: the hint must go, or a probe would cut the bucket wrongly.
    db = Database()
    db.executescript(SCHEMA)
    table = db.lookup_table("log")
    db.execute("INSERT INTO log VALUES (1, 'a', 'x', 'v1')")
    assert table.mark_sorted(0)
    db.execute("INSERT INTO log VALUES ('nan', 'a', 'x', 'n')")
    assert not table.is_sorted(0)
    assert not table.mark_sorted(0)
