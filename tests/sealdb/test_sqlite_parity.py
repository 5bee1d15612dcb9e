"""Differential testing: SealDB vs the stdlib ``sqlite3`` engine.

Hypothesis generates random tables and queries from the SQL subset both
engines support; results must match as multisets (and exactly when ordered).
This is the strongest evidence that the paper's SQL invariants behave on
SealDB exactly as they would on the SQLite instance the real LibSEAL embeds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.sqlite_oracle import (
    assert_matches_sqlite,
    execute_both,
    fresh_engines,
    mirrored,
    run_both,
)

SCHEMA = "CREATE TABLE t(a INTEGER, b INTEGER, s TEXT)"

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
    st.one_of(st.none(), st.sampled_from(["x", "y", "z", "", "abc"])),
)

rows_strategy = st.lists(row_strategy, min_size=0, max_size=25)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, threshold=st.integers(min_value=-50, max_value=50))
def test_where_filter_parity(rows, threshold):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT a, b, s FROM t WHERE a > ? ORDER BY a, b, s"
    assert run_both(seal, lite, sql, (threshold,))[0] == run_both(
        seal, lite, sql, (threshold,)
    )[1]


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_group_by_aggregates_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = (
        "SELECT b, COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) "
        "FROM t GROUP BY b ORDER BY b"
    )
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_having_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_distinct_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT DISTINCT b, s FROM t ORDER BY b, s"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_self_join_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = (
        "SELECT x.a, y.a FROM t x JOIN t y ON x.b = y.b AND x.a < y.a "
        "ORDER BY x.a, y.a"
    )
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_correlated_subquery_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = (
        "SELECT a, b FROM t outerq WHERE a = "
        "(SELECT MAX(a) FROM t WHERE b = outerq.b) ORDER BY a, b"
    )
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_in_subquery_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT a FROM t WHERE b IN (SELECT b FROM t WHERE a > 0) ORDER BY a"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_not_in_subquery_parity(rows):
    # NOT IN with NULLs is the classic differential trap.
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT a FROM t WHERE a NOT IN (SELECT b FROM t) ORDER BY a"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_arithmetic_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT a + b, a - b, a * b, a % 7 FROM t ORDER BY a, b, s"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_union_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT a FROM t WHERE a > 0 UNION SELECT b FROM t ORDER BY 1"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_except_intersect_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    for op in ("EXCEPT", "INTERSECT"):
        sql = f"SELECT a FROM t {op} SELECT b FROM t ORDER BY 1"
        seal_rows, lite_rows = run_both(seal, lite, sql)
        assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, limit=st.integers(min_value=0, max_value=10))
def test_order_limit_offset_parity(rows, limit):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = f"SELECT a, b, s FROM t ORDER BY a DESC, b, s LIMIT {limit} OFFSET 2"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_case_and_like_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = (
        "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END, "
        "s LIKE 'a%' FROM t ORDER BY a, b, s"
    )
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_delete_trimming_parity(rows):
    """The paper's trimming-query pattern must delete identical row sets."""
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "DELETE FROM t WHERE a NOT IN (SELECT MAX(a) FROM t GROUP BY b)"
    seal.execute(sql)
    lite.execute(sql)
    seal_rows, lite_rows = run_both(seal, lite, "SELECT a, b, s FROM t ORDER BY a, b, s")
    assert seal_rows == lite_rows


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_scalar_subquery_select_parity(rows):
    seal, lite = fresh_engines(SCHEMA, rows)
    sql = "SELECT (SELECT COUNT(*) FROM t), (SELECT MAX(a) FROM t WHERE b = 1)"
    seal_rows, lite_rows = run_both(seal, lite, sql)
    assert seal_rows == lite_rows


FIXED_ROWS = [
    (1, 2, "x"), (None, 2, "y"), (3, None, None), (-4, 1, ""),
    (5, 1, "abc"), (5, 2, "x"), (0, 0, "z"),
]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT COUNT(*) FROM t",
        "SELECT COALESCE(MAX(a), -999) FROM t",
        "SELECT b, GROUP_CONCAT(s) FROM t GROUP BY b ORDER BY b",
        "SELECT ABS(a), LENGTH(s) FROM t ORDER BY a, b, s",
        "SELECT a FROM t WHERE a BETWEEN -5 AND 5 ORDER BY a",
        "SELECT a FROM t WHERE s IS NOT NULL AND a IS NULL",
        "SELECT SUM(a + b) FROM t WHERE s != ''",
        # NOT IN over lists and subqueries that contain NULL.
        "SELECT a FROM t WHERE a NOT IN (1, NULL)",
        "SELECT a FROM t WHERE a NOT IN (1, 3)",
        "SELECT a, b FROM t WHERE b NOT IN (SELECT a FROM t)",
        "SELECT a FROM t WHERE a NOT IN (SELECT b FROM t WHERE b IS NOT NULL)",
        # LEFT JOIN padding, the anti-join idiom, a residual in the ON.
        "SELECT x.a, y.a FROM t x LEFT JOIN t y ON x.a = y.b ORDER BY x.a, y.a",
        "SELECT x.a, x.s FROM t x LEFT JOIN t y ON x.a = y.b WHERE y.a IS NULL",
        "SELECT x.s, y.s FROM t x LEFT JOIN t y ON x.b = y.a AND y.s LIKE 'x%'",
        # Compound selects, including a left-associative chain.
        "SELECT a FROM t UNION ALL SELECT b FROM t",
        "SELECT a FROM t UNION SELECT b FROM t ORDER BY 1",
        "SELECT a FROM t EXCEPT SELECT b FROM t",
        "SELECT a FROM t INTERSECT SELECT b FROM t",
        "SELECT a FROM t UNION SELECT b FROM t EXCEPT SELECT 1 ORDER BY 1 DESC",
        # Integer division and modulo truncate toward zero; by zero is NULL.
        "SELECT a / 2, a % 3, -7 / 2, -7 % 3, 7 / -2, 7 % -3, a / 0, a % 0, "
        "5 / 2.0 FROM t",
        "SELECT a / b, a % b FROM t",
        # LIKE folds ASCII case.
        "SELECT s FROM t WHERE s LIKE 'ABC'",
        "SELECT s FROM t WHERE s LIKE 'X%'",
        "SELECT s FROM t WHERE s LIKE 'a_C'",
        "SELECT s FROM t WHERE s NOT LIKE '%b%'",
        # A negative LIMIT is no limit.
        "SELECT a FROM t ORDER BY a LIMIT -1",
        "SELECT a FROM t ORDER BY a LIMIT -1 OFFSET 2",
        "SELECT COUNT(DISTINCT b), COUNT(DISTINCT s), COUNT(DISTINCT a) FROM t",
        "SELECT b, COUNT(DISTINCT a) FROM t GROUP BY b ORDER BY b",
        "SELECT SUM(DISTINCT a) FROM t",
        # ROUND sends halves away from zero, at any digit.
        "SELECT round(2.5), round(-2.5), round(2.45, 1)",
        "SELECT round(0.5), round(-0.5), round(0.25, 1), round(-0.125, 2), "
        "round(5), round(NULL), round(2.5, NULL), round(2.5, -1)",
        "SELECT round(a / 2.0), round(a * 0.25, 1), round(a) FROM t ORDER BY a",
    ],
)
def test_fixed_queries_parity(sql):
    seal, lite = fresh_engines(SCHEMA, FIXED_ROWS)
    assert_matches_sqlite(seal, lite, sql)


@pytest.mark.parametrize(
    "sql,sealdb_rows,sqlite_rows",
    [
        # Comparison affinity. SQLite converts the constant to the
        # column's declared affinity before comparing, so a TEXT column
        # equals 10 and an INTEGER column equals '5'. SealDB compares
        # storage classes as they are (integers sort before text), so
        # neither ever matches: an invariant written with the wrong
        # literal type is silently never true — a false negative. The
        # SSM schemas avoid it by binding typed parameters.
        ("SELECT a FROM t WHERE s = 10", [], [(10,)]),
        ("SELECT a FROM t WHERE a = '5' ORDER BY a", [], [(5,), (5,)]),
    ],
)
def test_known_deviations_from_sqlite(sql, sealdb_rows, sqlite_rows):
    """Where SealDB knowingly answers differently, both answers are
    pinned: a change on either side of the gap fails here instead of
    passing unnoticed (DESIGN.md §5)."""
    seal, lite = fresh_engines(SCHEMA, FIXED_ROWS + [(10, 10, "10")])
    assert run_both(seal, lite, sql) == (sealdb_rows, sqlite_rows)


@pytest.mark.parametrize(
    "sql",
    [
        # A bare column beside exactly one MAX()/MIN() comes from the row
        # holding the extreme (https://www.sqlite.org/lang_select.html),
        # not from the group's first row.
        "SELECT s, MAX(a) FROM t",
        "SELECT s, MIN(a) FROM t",
        "SELECT s, MAX(a), COUNT(*), SUM(b) FROM t",
        "SELECT b, s, MIN(a) FROM t GROUP BY b ORDER BY b",
        "SELECT s, MAX(a) AS m FROM t GROUP BY b > 1 ORDER BY m",
        "SELECT s, MAX(a + b) FROM t",
        "SELECT s FROM t GROUP BY b HAVING MAX(a) > 0 ORDER BY b",
        # Ties keep the first row holding the extreme (two rows hold 5
        # when the 10 is filtered out).
        "SELECT s, b, MAX(a) FROM t WHERE a < 10",
        # NULLs are never the extreme; an empty group answers with NULLs.
        # (A group whose values are all NULL has no extreme, and SQLite's
        # pick there depends on its plan: not pinned.)
        "SELECT b, s, MIN(a) FROM t WHERE b <= 0 GROUP BY b ORDER BY b",
        "SELECT s, MAX(a) FROM t WHERE 0",
        # The same aggregate twice is still one aggregate.
        "SELECT s, MAX(a), MAX(a) FROM t",
    ],
)
def test_bare_column_beside_min_max_parity(sql):
    rows = [(None, 0, "n")] + FIXED_ROWS + [(10, 10, "10")]
    seal, lite = fresh_engines(SCHEMA, rows)
    assert_matches_sqlite(seal, lite, sql)


def test_paper_git_invariants_parity():
    """Run the paper's Git invariants on both engines over the same log."""
    seal, lite = mirrored(
        "CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);"
        "CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT);"
    )
    updates = [
        (1, "r", "master", "c1", "update"),
        (2, "r", "master", "c2", "update"),
        (3, "r", "dev", "d1", "update"),
        (5, "r", "dev", "d1", "delete"),
        (6, "r2", "master", "e1", "update"),
    ]
    ads = [
        (4, "r", "master", "c1"),   # rollback: c2 was latest
        (4, "r", "dev", "d1"),
        (7, "r", "master", "c2"),
        (8, "r2", "master", "e1"),
    ]
    for row in updates:
        execute_both(seal, lite, "INSERT INTO updates VALUES (?,?,?,?,?)", row)
    for row in ads:
        execute_both(seal, lite, "INSERT INTO advertisements VALUES (?,?,?,?)", row)
    soundness = (
        "SELECT * FROM advertisements a WHERE cid != ("
        "SELECT u.cid FROM updates u WHERE u.repo = a.repo AND "
        "u.branch = a.branch AND u.time < a.time ORDER BY u.time DESC LIMIT 1)"
    )
    seal_rows = assert_matches_sqlite(seal, lite, soundness).rows
    assert (4, "r", "master", "c1") in seal_rows
