"""Unit tests for the SealDB query planner and its executor access paths.

Each test states the *observable* contract: a planned access path must
return exactly the rows stdlib ``sqlite3`` returns for the same data
(``tests/sqlite_oracle.py``), while touching only the rows the path is
supposed to touch — ``Result.rows_scanned`` is pinned per query, next to
what scanning everything would have cost on this 40+40-row fixture.
"""

import pytest

from repro.sealdb.errors import SQLExecutionError
from repro.sealdb.parser import parse_statement
from repro.sealdb.planner import (
    attribute_to_leg,
    collect_aliases,
    plan_scan,
    split_conjuncts,
)
from tests.sqlite_oracle import assert_matches_sqlite, audit_engines, execute_both

#: What a scan-everything executor pays on the fixture: one table, and
#: the cross product of both.
FULL_SCAN = 40
CROSS_PRODUCT = 40 * 40 + 40 + 40


def make_db():
    return audit_engines(40)[0]


def both(sql, params=()):
    """Rows must equal SQLite's; returns the SealDB result."""
    return assert_matches_sqlite(*audit_engines(40), sql, params)


class TestPlanStructures:
    def test_split_conjuncts_flattens_nested_and(self):
        stmt = parse_statement(
            "SELECT * FROM updates WHERE time > 1 AND repo = 'r' AND branch = 'b'"
        )
        assert len(split_conjuncts(stmt.where)) == 3

    def test_plan_scan_picks_equality_and_range(self):
        db = make_db()
        table = db.lookup_table("updates")
        table.mark_sorted(0)
        stmt = parse_statement(
            "SELECT * FROM updates u WHERE u.repo = 'repo-1' AND u.time > 5"
        )
        plan = plan_scan(table, "u", split_conjuncts(stmt.where))
        assert [lookup.column_index for lookup in plan.lookups] == [1]
        assert plan.range_start is not None
        assert plan.range_start.column_index == 0
        assert not plan.residual
        assert not plan.is_full_scan

    def test_plan_scan_without_sorted_hint_keeps_range_residual(self):
        db = make_db()
        table = db.lookup_table("updates")  # no mark_sorted
        stmt = parse_statement("SELECT * FROM updates u WHERE u.time > 5")
        plan = plan_scan(table, "u", split_conjuncts(stmt.where))
        assert plan.range_start is None
        assert plan.residual is not None
        assert plan.is_full_scan

    def test_attribute_to_leg(self):
        stmt = parse_statement(
            "SELECT * FROM updates u JOIN advertisements a ON u.repo = a.repo "
            "WHERE u.time > 1 AND a.time > 2 AND u.time < a.time"
        )
        left = collect_aliases(stmt.source.left)
        right = collect_aliases(stmt.source.right)
        conjuncts = split_conjuncts(stmt.where)
        assert attribute_to_leg(conjuncts[0], left, right) == "left"
        assert attribute_to_leg(conjuncts[1], left, right) == "right"
        assert attribute_to_leg(conjuncts[2], left, right) is None


class TestPlannedExecutionParity:
    def test_equality_lookup(self):
        planned = both("SELECT * FROM updates WHERE repo = 'repo-2'")
        assert planned.rows_scanned == 10 < FULL_SCAN

    def test_composite_equality_lookup(self):
        both("SELECT cid FROM updates WHERE repo = 'repo-1' AND branch = 'b1'")

    def test_equality_with_residual(self):
        both("SELECT * FROM updates WHERE repo = 'repo-3' AND time > 20")

    def test_range_scan_on_sorted_time(self):
        seal, lite = audit_engines(40)
        # The audit layer marks time sorted; emulate it here.
        seal.lookup_table("updates").mark_sorted(0)
        result = assert_matches_sqlite(
            seal, lite, "SELECT cid FROM updates WHERE time > 30"
        )
        assert result.rows_scanned == 9 < FULL_SCAN

    def test_equality_never_matches_null(self):
        seal, lite = audit_engines(40)
        execute_both(seal, lite, "INSERT INTO updates VALUES (NULL, NULL, 'b0', 'x')")
        assert_matches_sqlite(
            seal, lite, "SELECT cid FROM updates WHERE repo = 'repo-0'"
        )

    def test_hash_equi_join_matches_nested_loop(self):
        planned = both(
            "SELECT u.cid, a.cid FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.branch = a.branch WHERE u.time < 10"
        )
        assert planned.rows_scanned == 150 < CROSS_PRODUCT

    def test_natural_join_parity(self):
        both("SELECT * FROM updates NATURAL JOIN advertisements")

    def test_left_join_parity(self):
        both(
            "SELECT u.cid, a.cid FROM updates u LEFT JOIN advertisements a "
            "ON u.repo = a.repo AND a.time > 35"
        )

    def test_left_join_where_on_right_leg_applies_after_padding(self):
        # A right-leg WHERE predicate must filter padded NULL rows out:
        # it runs after the join, not pushed beneath the padding.
        both(
            "SELECT u.cid FROM updates u LEFT JOIN advertisements a "
            "ON u.repo = a.repo AND u.time = a.time WHERE a.cid = 'c1'"
        )

    def test_correlated_subquery_uses_index(self):
        planned = both(
            "SELECT a.time, a.repo FROM advertisements a WHERE a.cid != ("
            "  SELECT u.cid FROM updates u"
            "  WHERE u.repo = a.repo AND u.branch = a.branch AND u.time < a.time"
            "  ORDER BY u.time DESC LIMIT 1)"
        )
        # 40 outer rows + one 2-row index probe each, not 40 inner scans.
        assert planned.rows_scanned == 120 < FULL_SCAN + 40 * FULL_SCAN

    def test_group_by_over_planned_scan(self):
        both(
            "SELECT repo, COUNT(*) FROM updates WHERE branch = 'b2' GROUP BY repo"
        )

    def test_ambiguous_column_still_errors(self):
        planned = make_db()
        with pytest.raises(SQLExecutionError):
            planned.execute(
                "SELECT cid FROM updates u JOIN advertisements a ON u.repo = a.repo"
            )

    def test_unknown_column_still_errors(self):
        planned = make_db()
        with pytest.raises(SQLExecutionError):
            planned.execute("SELECT * FROM updates WHERE nope = 1")

    def test_parameterised_lookup_key(self):
        both("SELECT cid FROM updates WHERE repo = ?", ("repo-1",))


class TestIndexLifecycle:
    def test_update_invalidates_index(self):
        seal, lite = audit_engines(40)
        sql = "SELECT cid FROM updates WHERE repo = 'repo-0'"
        before = seal.execute(sql).rows  # builds the index
        execute_both(
            seal, lite, "UPDATE updates SET repo = 'repo-0' WHERE repo = 'repo-3'"
        )
        after = assert_matches_sqlite(seal, lite, sql).rows
        assert len(after) > len(before)

    def test_delete_invalidates_index(self):
        seal, lite = audit_engines(40)
        sql = "SELECT cid FROM updates WHERE branch = 'b1'"
        seal.execute(sql)  # build the index
        execute_both(seal, lite, "DELETE FROM updates WHERE time < 20")
        assert assert_matches_sqlite(seal, lite, sql).rows

    def test_insert_maintains_index(self):
        db = make_db()
        sql = "SELECT cid FROM updates WHERE repo = 'fresh'"
        assert db.execute(sql).rows == []
        db.execute("INSERT INTO updates VALUES (99, 'fresh', 'b', 'c99')")
        assert db.execute(sql).rows == [("c99",)]

    def test_out_of_order_insert_drops_sorted_hint(self):
        seal, lite = audit_engines(40)
        table = seal.lookup_table("updates")
        assert table.mark_sorted(0)
        execute_both(seal, lite, "INSERT INTO updates VALUES (0, 'late', 'b', 'c')")
        assert not table.is_sorted(0)
        assert_matches_sqlite(seal, lite, "SELECT cid FROM updates WHERE time > 35")

    def test_scan_stats_accumulate(self):
        db = make_db()
        start = db.scan_stats.rows_scanned
        result = db.execute("SELECT * FROM updates")
        assert result.rows_scanned == 40
        assert db.scan_stats.rows_scanned == start + 40
