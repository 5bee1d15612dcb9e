"""Column binding against two oracles: stdlib ``sqlite3`` and a cold twin.

A column reference is compiled once per AST node and bound to a slot
through the resolution map of whatever layout it meets; a correlated
subquery's memo reads its outer columns through compiled readers. This
file drives the cases where one compiled expression meets different
layouts or scopes:

- a view (itself correlated) read by two statements with different FROM
  orders;
- a correlated reference two scope levels up;
- a GROUP BY group's representative row, read by select items and by a
  correlated subquery;
- NULL-padded LEFT JOIN rows, read by a residual and by a subquery;
- ambiguous and unknown columns, which must raise SQLite's message.

Hypothesis feeds seeded inserts and deletes of mixed-type values (``1``
beside ``1.0`` and ``'1'``, NULLs) into one long-lived database, which
reuses its statement ASTs and compiled closures for every check. Every
answer must equal SQLite's, and equal, in value, type and row order and in
``rows_scanned`` / ``rows_vectorized``, the answer of a twin database
built fresh for that one query. Tier-1 runs a few examples; the nightly
raises ``REPRO_BINDING_EXAMPLES``.
"""

import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sealdb import Database
from repro.sealdb.errors import SQLExecutionError
from tests.sqlite_oracle import assert_matches_sqlite, fresh_engines

SCHEMA = """
CREATE TABLE t(a, b, c);
CREATE TABLE u(a, b, d);
CREATE VIEW v AS SELECT a, b, (SELECT MAX(d) FROM u WHERE u.b = t.b) AS m FROM t;
"""

QUERIES = [
    # One view, two FROM orders: its columns sit at different slots.
    "SELECT v.a, v.m, u.d FROM v JOIN u ON v.a = u.a",
    "SELECT v.a, v.m, u.d FROM u JOIN v ON v.a = u.a",
    "SELECT u.d, v.m FROM u, v WHERE v.b = u.b AND v.m IS NOT NULL",
    "SELECT a, (SELECT COUNT(*) FROM u WHERE u.b = v.b) FROM v",
    # Correlated references two scope levels up.
    "SELECT t.a, (SELECT COUNT(*) FROM u WHERE u.b = t.b AND EXISTS"
    " (SELECT 1 FROM t t2 WHERE t2.c = t.c AND t2.a = u.a)) FROM t",
    "SELECT a, c FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a"
    " AND u.d IN (SELECT t3.b FROM t t3 WHERE t3.c = t.c))",
    "SELECT t.a, (SELECT (SELECT typeof(t.b) || u.d) FROM u"
    " WHERE u.a = t.a ORDER BY u.d LIMIT 1) FROM t",
    # A group's representative row.
    "SELECT b, a, MAX(c) FROM t WHERE c IS NOT NULL GROUP BY b",
    "SELECT b, MAX(c), (SELECT COUNT(*) FROM u WHERE u.a = t.a) FROM t"
    " WHERE c IS NOT NULL GROUP BY b",
    "SELECT b, MIN(c) FROM t WHERE c IS NOT NULL GROUP BY b"
    " HAVING EXISTS (SELECT 1 FROM u WHERE u.b = t.b)",
    # NULL-padded LEFT JOIN rows.
    "SELECT t.a, u.d, (SELECT COUNT(*) FROM t t2 WHERE t2.b = u.b)"
    " FROM t LEFT JOIN u ON t.a = u.a",
    "SELECT t.a, u.d FROM t LEFT JOIN u ON t.a = u.a"
    " WHERE u.d IS NULL OR u.d > t.c",
    "SELECT t.c, typeof(u.b), (SELECT typeof(u.b)) FROM t LEFT JOIN u ON u.a = t.b",
    # Values Python calls equal and SQL does not.
    "SELECT a, (SELECT typeof(t.a)), (SELECT t.a || 'x') FROM t",
]

#: Each raises on any non-empty ``t`` and ``u``, in both engines alike.
ERRORS = [
    "SELECT b FROM t JOIN u ON t.a = u.a OR 1",
    "SELECT t.zz FROM t",
    "SELECT a, (SELECT t.zz FROM u) FROM t",
    "SELECT a, (SELECT zz FROM u WHERE u.d = t.c OR 1) FROM t",
    "SELECT (SELECT b FROM u, t t2) FROM t",
    "SELECT (SELECT c FROM u) FROM t JOIN t t3 ON 1",
]

VALUES = st.sampled_from([0, 1, 1.0, 2, 2.5, "1", "x", None])
ROW = st.tuples(VALUES, VALUES, VALUES)
OPS = st.one_of(
    st.tuples(st.sampled_from(["t", "u"]), ROW),
    st.tuples(st.just("delete"), st.sampled_from(["t", "u"]), VALUES),
)


def _rows(result):
    return [tuple(map(repr, row)) for row in result.rows]


class Engines:
    """A long-lived SealDB database and SQLite, fed alike; a cold twin is
    built from the same rows for every query."""

    def __init__(self):
        self.seal, self.lite = Database(), sqlite3.connect(":memory:")
        self.seal.executescript(SCHEMA)
        self.lite.executescript(SCHEMA)
        self.contents = {"t": [], "u": []}

    def apply(self, op):
        if op[0] == "delete":
            _, table, value = op
            sql = f"DELETE FROM {table} WHERE a = ?"
            self.contents[table] = [
                row for row in self.contents[table]
                if self.lite.execute("SELECT ? = ?", (row[0], value)).fetchone()[0] != 1
            ]
            params = (value,)
        else:
            table, params = op
            sql = f"INSERT INTO {table} VALUES (?, ?, ?)"
            self.contents[table].append(params)
        self.seal.execute(sql, params)
        self.lite.execute(sql, params)

    def twin(self) -> Database:
        twin = Database()
        twin.executescript(SCHEMA)
        for table, rows in self.contents.items():
            for row in rows:
                twin.execute(f"INSERT INTO {table} VALUES (?, ?, ?)", row)
        return twin

    def check(self, sql):
        seal = assert_matches_sqlite(self.seal, self.lite, sql)
        twin = self.twin().execute(sql)
        assert _rows(seal) == _rows(twin), sql
        assert (seal.rows_scanned, seal.rows_vectorized) == (
            twin.rows_scanned, twin.rows_vectorized
        ), sql

    def check_error(self, sql):
        with pytest.raises(sqlite3.OperationalError) as lite:
            self.lite.execute(sql).fetchall()
        for db in (self.seal, self.twin()):
            with pytest.raises(SQLExecutionError) as seal:
                db.execute(sql)
            assert str(seal.value) == str(lite.value), sql


@settings(
    max_examples=int(os.environ.get("REPRO_BINDING_EXAMPLES", "8")), deadline=None
)
@given(ops=st.lists(OPS, min_size=1, max_size=24))
def test_binding_matches_sqlite_and_a_cold_twin(ops):
    engines = Engines()
    for i, op in enumerate(ops):
        engines.apply(op)
        if i % 8 == 7 or i == len(ops) - 1:
            for sql in QUERIES:
                engines.check(sql)
            if engines.contents["t"] and engines.contents["u"]:
                for sql in ERRORS:
                    engines.check_error(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT b, (SELECT typeof(b)) FROM q",
        "SELECT b, (SELECT b / 2) FROM q",
        "SELECT b, (SELECT b || 'x') FROM q",
    ],
)
def test_correlation_memo_tells_1_from_1_0(sql):
    # The memo once keyed correlation values by Python equality, so the
    # row holding 1.0 was answered with the answer computed for 1.
    seal, lite = fresh_engines("CREATE TABLE q(b);", [(1,), (1.0,)], table="q")
    result = assert_matches_sqlite(seal, lite, sql)
    assert [type(row[0]) for row in result.rows] == [int, float]
