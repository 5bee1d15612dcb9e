"""Second differential-testing batch: SealDB vs sqlite3 on DML, joins,
views, scalar functions and ordering edge cases."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.sqlite_oracle import fresh_engines, run_both as both

SCHEMA = "CREATE TABLE t(a INTEGER, b INTEGER, s TEXT)"

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-30, max_value=30)),
    st.one_of(st.none(), st.integers(min_value=-4, max_value=4)),
    st.one_of(st.none(), st.sampled_from(["x", "y", "zz", "", "Abc"])),
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=20)


def fresh(rows):
    return fresh_engines(SCHEMA, rows)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, bump=st.integers(min_value=-5, max_value=5))
def test_update_parity(rows, bump):
    seal, lite = fresh(rows)
    sql = "UPDATE t SET a = a + ?, s = s || '!' WHERE b > 0"
    seal.execute(sql, (bump,))
    lite.execute(sql, (bump,))
    a, b = both(seal, lite, "SELECT a, b, s FROM t ORDER BY a, b, s")
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_update_with_subquery_parity(rows):
    seal, lite = fresh(rows)
    sql = "UPDATE t SET b = (SELECT MAX(a) FROM t) WHERE s = 'x'"
    seal.execute(sql)
    lite.execute(sql)
    a, b = both(seal, lite, "SELECT a, b, s FROM t ORDER BY a, b, s")
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_left_join_parity(rows):
    seal, lite = fresh(rows)
    sql = (
        "SELECT x.a, y.s FROM t x LEFT JOIN t y "
        "ON x.b = y.b AND y.a > 0 ORDER BY x.a, x.b, x.s, y.a, y.s"
    )
    a, b = both(seal, lite, sql)
    assert sorted(map(repr, a)) == sorted(map(repr, b))


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_view_parity(rows):
    seal, lite = fresh(rows)
    view = "CREATE VIEW big AS SELECT a, b FROM t WHERE a > 0"
    seal.execute(view)
    lite.execute(view)
    sql = "SELECT v.b, COUNT(*) FROM big v GROUP BY v.b ORDER BY v.b"
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_mixed_direction_order_parity(rows):
    seal, lite = fresh(rows)
    sql = "SELECT a, b, s FROM t ORDER BY b DESC, a ASC, s DESC"
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_insert_from_select_parity(rows):
    seal, lite = fresh(rows)
    ddl = "CREATE TABLE copy(a INTEGER, b INTEGER)"
    dml = "INSERT INTO copy SELECT a, b FROM t WHERE a IS NOT NULL"
    for db in (seal,):
        db.execute(ddl)
        db.execute(dml)
    lite.execute(ddl)
    lite.execute(dml)
    a, b = both(seal, lite, "SELECT a, b FROM copy ORDER BY a, b")
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_count_distinct_and_sum_parity(rows):
    seal, lite = fresh(rows)
    sql = "SELECT COUNT(DISTINCT b), COUNT(DISTINCT s), SUM(b) FROM t"
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_nested_from_subquery_parity(rows):
    seal, lite = fresh(rows)
    sql = (
        "SELECT inner1.b, MAX(inner1.a) FROM "
        "(SELECT a, b FROM t WHERE a IS NOT NULL) AS inner1 "
        "GROUP BY inner1.b ORDER BY inner1.b"
    )
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, low=st.integers(-10, 0), high=st.integers(0, 10))
def test_between_not_between_parity(rows, low, high):
    seal, lite = fresh(rows)
    for negated in ("", "NOT "):
        sql = f"SELECT a FROM t WHERE a {negated}BETWEEN ? AND ? ORDER BY a"
        a, b = both(seal, lite, sql, (low, high))
        assert a == b


@pytest.mark.parametrize(
    "expr",
    [
        "ABS(a)",
        "LENGTH(s)",
        "UPPER(s) || LOWER(s)",
        "SUBSTR(s, 1, 2)",
        "SUBSTR(s, 2)",
        "COALESCE(a, b, 0)",
        "IFNULL(a, -1)",
        "NULLIF(a, b)",
        "ROUND(a * 1.5, 1)",
        "MIN(a, b)",
        "MAX(a, b)",
        "REPLACE(s, 'x', 'Q')",
        "TRIM(s)",
        "INSTR(s, 'b')",
        "TYPEOF(a)",
        "a % 3",
        "CASE b WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'other' END",
    ],
)
def test_scalar_function_parity(expr):
    rows = [
        (1, 2, "xAbx"), (None, 1, " padded "), (-7, None, ""),
        (30, 2, "b"), (0, 0, None), (5, 1, "zz"),
    ]
    seal, lite = fresh(rows)
    sql = f"SELECT {expr} FROM t ORDER BY a, b, s"
    a, b = both(seal, lite, sql)
    assert a == b, f"{expr}: {a} != {b}"


def test_union_all_then_order_positions():
    rows = [(3, 1, "a"), (1, 2, "b"), (2, 1, "c")]
    seal, lite = fresh(rows)
    sql = (
        "SELECT a, s FROM t WHERE b = 1 UNION ALL "
        "SELECT a, s FROM t WHERE b = 2 ORDER BY 1 DESC"
    )
    a, b = both(seal, lite, sql)
    assert a == b


def test_group_concat_parity_single_group():
    rows = [(1, 1, "a"), (2, 1, "b"), (3, 1, "c")]
    seal, lite = fresh(rows)
    sql = "SELECT GROUP_CONCAT(s) FROM t WHERE b = 1"
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_exists_parity(rows):
    seal, lite = fresh(rows)
    sql = (
        "SELECT a FROM t outerq WHERE EXISTS "
        "(SELECT 1 FROM t WHERE b = outerq.b AND a > outerq.a) ORDER BY a"
    )
    a, b = both(seal, lite, sql)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_correlated_delete_then_reinsert_parity(rows):
    """Exercises the subquery cache across DML statements."""
    seal, lite = fresh(rows)
    delete = "DELETE FROM t WHERE a < (SELECT AVG(a) FROM t WHERE b = t.b)"
    seal.execute(delete)
    lite.execute(delete)
    seal.execute("INSERT INTO t VALUES (99, 9, 'new')")
    lite.execute("INSERT INTO t VALUES (99, 9, 'new')")
    a, b = both(seal, lite, "SELECT a, b, s FROM t ORDER BY a, b, s")
    assert a == b


def test_like_patterns_parity():
    rows = [(1, 1, "alpha"), (2, 1, "ALPHA"), (3, 1, "beta"),
            (4, 1, "al%ha"), (5, 1, None), (6, 1, "a_pha")]
    seal, lite = fresh(rows)
    for pattern in ("al%", "%pha", "a_pha", "%", "", "AL%"):
        sql = "SELECT a FROM t WHERE s LIKE ? ORDER BY a"
        a, b = both(seal, lite, sql, (pattern,))
        assert a == b, pattern
