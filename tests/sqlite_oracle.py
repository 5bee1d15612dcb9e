"""The reference SealDB is held to: stdlib ``sqlite3``.

The real LibSEAL embeds SQLite; this reproduction embeds SealDB. Every
test that asks "are these the right rows?" answers it here, by running
the same statements on both engines — an oracle that was not written in
this repository and can therefore disagree with it. Row *counts touched*
(``rows_scanned`` / ``rows_vectorized``) have no SQLite counterpart; the
tests that care pin those as golden numbers instead.
"""

import sqlite3

from repro.sealdb import Database
from repro.sealdb.executor import Result
from repro.sealdb.parser import parse_statement

AUDIT_SCHEMA = """
CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT);
CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT);
"""


def mirrored(script: str = "") -> tuple[Database, sqlite3.Connection]:
    """A SealDB database and an in-memory SQLite one that both ran ``script``."""
    seal, lite = Database(), sqlite3.connect(":memory:")
    seal.executescript(script)
    lite.executescript(script)
    return seal, lite


def execute_both(seal: Database, lite: sqlite3.Connection, sql: str, params=()) -> Result:
    """Run one (DML/DDL) statement on both engines; the SealDB result."""
    lite.execute(sql, params)
    return seal.execute(sql, params)


def fresh_engines(
    schema: str, rows: list[tuple], table: str = "t"
) -> tuple[Database, sqlite3.Connection]:
    seal, lite = mirrored(schema)
    for row in rows:
        placeholders = ", ".join("?" * len(row))
        execute_both(seal, lite, f"INSERT INTO {table} VALUES ({placeholders})", row)
    return seal, lite


def audit_engines(
    rows: int, null_cid_every: int = 0
) -> tuple[Database, sqlite3.Connection]:
    """The git-log-shaped two-table fixture: ``rows`` updates and as many
    advertisements over 4 repos x 5 branches, each advertisement naming
    the commit four updates back. ``null_cid_every=k`` NULLs every k-th
    update's cid so three-valued logic gets exercised."""
    seal, lite = mirrored(AUDIT_SCHEMA)
    for i in range(rows):
        cid = None if null_cid_every and i % null_cid_every == 0 else f"c{i}"
        execute_both(
            seal, lite, "INSERT INTO updates VALUES (?, ?, ?, ?)",
            (i, f"repo-{i % 4}", f"b{i % 5}", cid),
        )
        execute_both(
            seal, lite, "INSERT INTO advertisements VALUES (?, ?, ?, ?)",
            (i, f"repo-{i % 4}", f"b{i % 5}", f"c{max(0, i - 4)}"),
        )
    return seal, lite


def run_both(seal: Database, lite: sqlite3.Connection, sql: str, params=()):
    seal_rows = [tuple(r) for r in seal.execute(sql, params).rows]
    lite_rows = [tuple(r) for r in lite.execute(sql, params).fetchall()]
    return seal_rows, lite_rows


def assert_same_multiset(seal_rows, lite_rows):
    assert sorted(map(repr, seal_rows)) == sorted(map(repr, lite_rows))


def assert_matches_sqlite(
    seal: Database, lite: sqlite3.Connection, sql: str, params=()
) -> Result:
    """SealDB's answer to ``sql`` equals SQLite's: in exact order when the
    statement has a top-level ORDER BY, as a multiset otherwise (SQL
    promises no order there). Returns the SealDB result so callers can go
    on to assert its accounting."""
    result = seal.execute(sql, params)
    seal_rows = [tuple(r) for r in result.rows]
    lite_rows = [tuple(r) for r in lite.execute(sql, params).fetchall()]
    if parse_statement(sql).order_by:
        assert seal_rows == lite_rows, sql
    else:
        assert_same_multiset(seal_rows, lite_rows)
    return result
