"""Batch filtering must be invisible in the rows and exact in the books.

The executor filters through columnar batch predicates when a predicate
binds and through per-row scopes when it declines. Which of the two ran
may never show in the answer, so every query here is checked against
stdlib ``sqlite3`` (``tests/sqlite_oracle.py``); and because the checking
layer is priced from ``rows_scanned`` / ``rows_vectorized``, each query
also pins that pair to the golden value captured from the engine before
its row-at-a-time and unplanned reference regimes were deleted — a
batched scan must touch exactly the rows a scalar one did.
"""

import inspect
import sqlite3

import pytest

from repro.sealdb import Database
from repro.sealdb.parser import parse_statement
from repro.sealdb.planner import split_conjuncts
from repro.sealdb.vector import compile_batch
from tests.sqlite_oracle import assert_matches_sqlite, audit_engines


def make_engines(sorted_time=False):
    seal, lite = audit_engines(60, null_cid_every=7)
    if sorted_time:
        seal.lookup_table("updates").mark_sorted(0)
    return seal, lite


def check(sql, params=(), counts=None, sorted_time=False):
    """Rows equal SQLite's; (rows_scanned, rows_vectorized) equal golden."""
    seal, lite = make_engines(sorted_time)
    result = assert_matches_sqlite(seal, lite, sql, params)
    assert (result.rows_scanned, result.rows_vectorized) == counts, sql
    return result


# (sql, params, golden counts, golden counts with updates.time marked sorted).
# An upper bound on the sorted column cuts the scan's end as a lower bound
# cuts its start, so the sorted counts of ``40 > time`` and ``time < 50``
# are the rows below the bound, not the table.
BATCHABLE_QUERIES = [
    ("SELECT * FROM updates WHERE repo = 'repo-1'", (), (15, 15), (15, 15)),
    ("SELECT * FROM updates WHERE time > 30", (), (60, 60), (29, 29)),
    ("SELECT * FROM updates WHERE time >= ? AND repo != ?", (20, "repo-2"),
     (60, 60), (40, 40)),
    ("SELECT * FROM updates WHERE 40 > time", (), (60, 60), (40, 40)),
    ("SELECT * FROM updates WHERE cid IS NULL", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE cid IS NOT NULL AND time < 50", (),
     (60, 60), (50, 50)),
    ("SELECT * FROM updates WHERE time BETWEEN 10 AND 20", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE time NOT BETWEEN ? AND ?", (5, 55),
     (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE branch IN ('b1', 'b3')", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE branch NOT IN (?, ?)", ("b0", "b4"),
     (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE cid IN ('c3', NULL)", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates u WHERE u.repo = 'repo-0' AND u.branch = 'b0'", (),
     (3, 3), (3, 3)),
    ("SELECT * FROM updates WHERE 1", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE 0", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE repo = branch", (), (60, 60), (60, 60)),
    ("SELECT * FROM updates WHERE time BETWEEN 10 AND time", (),
     (60, 60), (60, 60)),
]

FALLBACK_QUERIES = [
    # Shapes outside the batchable subset: they run on the per-row Scope
    # path and never count vectorized rows.
    ("SELECT * FROM updates WHERE repo = 'repo-1' OR branch = 'b2'", (), (60, 0)),
    ("SELECT * FROM updates WHERE repo LIKE 'repo-%'", (), (60, 0)),
    ("SELECT * FROM updates WHERE time + 1 > 30", (), (60, 0)),
    (
        "SELECT * FROM updates u WHERE EXISTS ("
        "SELECT 1 FROM advertisements a WHERE length(a.cid) = length(u.cid))",
        (),
        (3180, 0),
    ),
]


class TestScanParity:
    @pytest.mark.parametrize("sql,params,counts,sorted_counts", BATCHABLE_QUERIES)
    def test_batchable_predicates(self, sql, params, counts, sorted_counts):
        result = check(sql, params, counts)
        assert result.rows_vectorized > 0

    @pytest.mark.parametrize("sql,params,counts,sorted_counts", BATCHABLE_QUERIES)
    def test_batchable_predicates_sorted(self, sql, params, counts, sorted_counts):
        check(sql, params, sorted_counts, sorted_time=True)

    @pytest.mark.parametrize("sql,params,counts", FALLBACK_QUERIES)
    def test_unbatchable_predicates_fall_back(self, sql, params, counts):
        check(sql, params, counts)
        check(sql, params, counts, sorted_time=True)

    def test_range_scan_stays_pruned(self):
        # The bisect prunes before the batch loop: 10 rows priced, not 60.
        check("SELECT * FROM updates WHERE time > 49", (), (10, 10), sorted_time=True)
        check("SELECT * FROM updates WHERE time > 49", (), (60, 60))

    def test_ordering_preserved(self):
        sql = "SELECT time, cid FROM updates WHERE time > 10 ORDER BY repo, time DESC"
        assert len(check(sql, (), (60, 60)).rows) == 49
        check(sql, (), (49, 49), sorted_time=True)


class TestJoinParity:
    def test_inner_hash_join_probe_is_batched(self):
        sql = (
            "SELECT u.time, a.time FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.branch = a.branch WHERE u.time > 50"
        )
        check(sql, (), (216, 156))
        check(sql, (), (165, 105), sorted_time=True)

    def test_left_join_keeps_row_path(self):
        sql = (
            "SELECT u.time, a.cid FROM updates u LEFT JOIN advertisements a "
            "ON u.cid = a.cid"
        )
        check(sql, (), (288, 0))

    def test_join_residual_batches_on_combined_layout(self):
        # The non-equi half of the ON clause (`u.time < a.time`) is a
        # col-vs-col comparison over the combined row — batched in the
        # probe loop rather than per-pair Scope evaluation.
        sql = (
            "SELECT u.time FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.time < a.time"
        )
        check(sql, (), (1140, 1020))

    def test_join_with_unbatchable_residual_falls_back(self):
        sql = (
            "SELECT u.time FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.time + 0 < a.time"
        )
        check(sql, (), (1140, 0))

    def test_join_mixed_residual_batches_the_prefix(self):
        # The branchcnt shape: `u.time < a.time` batches, the correlated
        # subquery conjunct cannot. Pairings the prefix rejects never
        # evaluate the subquery — exactly where an AND chain would
        # short-circuit, which the golden rows_scanned (it includes the
        # subquery's scans) proves. Only rejected pairings are vectorized.
        sql = (
            "SELECT u.time, a.time FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.time < a.time AND u.time = ("
            "SELECT MAX(time) FROM updates WHERE repo = u.repo"
            " AND time < a.time)"
        )
        check(sql, (), (1980, 1320))

    def test_join_prefix_with_null_verdicts_keeps_row_path_effects(self):
        # `u.cid != a.cid` is NULL for NULL cids: an unknown prefix
        # verdict must re-run the full residual so the subquery's scans
        # (side effects in rows_scanned) stay what an AND chain would do.
        sql = (
            "SELECT u.time FROM updates u JOIN advertisements a "
            "ON u.repo = a.repo AND u.cid != a.cid AND u.time = ("
            "SELECT MAX(time) FROM updates WHERE repo = u.repo"
            " AND time < a.time)"
        )
        check(sql, (), (2040, 948))


class TestCorrelatedParity:
    def test_correlated_inner_scan_batches(self):
        # The subquery's residual (`u.time < a.time`) references the
        # outer row: it binds as a lazy per-scan constant.
        sql = (
            "SELECT * FROM advertisements a WHERE EXISTS ("
            "SELECT 1 FROM updates u WHERE u.repo = a.repo"
            " AND u.time < a.time)"
        )
        check(sql, (), (960, 900))

    def test_soundness_shaped_scalar_subquery(self):
        # The paper's SOUNDNESS invariant shape: a correlated scalar
        # subquery whose inner scan filters on outer columns.
        sql = (
            "SELECT * FROM advertisements a WHERE cid != ("
            "SELECT u.cid FROM updates u WHERE u.repo = a.repo"
            " AND u.branch = a.branch AND u.time < a.time"
            " ORDER BY u.time DESC LIMIT 1)"
        )
        check(sql, (), (240, 180))

    def test_empty_scan_never_touches_outer_scope(self):
        # An unresolvable correlated reference only errors when a row
        # actually evaluates it — on an empty inner table SealDB answers
        # with no rows. (A known, deliberate difference: SQLite resolves
        # names when it prepares the statement and rejects this one.)
        seal, lite = make_engines()
        for engine in (seal, lite):
            engine.execute("CREATE TABLE empty_t(x INTEGER)")
        sql = (
            "SELECT * FROM updates u WHERE EXISTS ("
            "SELECT 1 FROM empty_t e WHERE e.x = u.nonexistent)"
        )
        result = seal.execute(sql)
        assert result.rows == []
        assert (result.rows_scanned, result.rows_vectorized) == (60, 0)
        with pytest.raises(sqlite3.OperationalError):
            lite.execute(sql)


class TestVectorizedAccounting:
    def test_nothing_selects_an_execution_regime(self):
        # No constructor argument and no public attribute: there is one
        # way a statement executes and nothing to flip on a live engine.
        assert not inspect.signature(Database).parameters
        assert not [name for name in vars(Database()) if not name.startswith("_")]

    def test_result_delta_matches_cumulative_stats(self):
        db, _ = make_engines()
        first = db.execute("SELECT * FROM updates WHERE time > 10")
        second = db.execute("SELECT * FROM updates WHERE repo = 'repo-2'")
        assert (first.rows_vectorized, second.rows_vectorized) == (60, 15)
        assert (
            db.scan_stats.rows_vectorized
            == first.rows_vectorized + second.rows_vectorized
        )


class TestBatchCompiler:
    def _conjuncts(self, sql):
        return split_conjuncts(parse_statement(sql).where)

    def test_compiles_supported_shapes(self):
        plan = compile_batch(
            self._conjuncts(
                "SELECT * FROM updates WHERE time > 3 AND cid IS NULL "
                "AND branch IN ('b1') AND time BETWEEN 1 AND 9"
            )
        )
        assert plan is not None

    def test_declines_or_and_functions(self):
        assert compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE time > 3 OR time < 1"
        )) is None
        assert compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE length(repo) = 6"
        )) is None

    def test_empty_conjuncts_decline(self):
        assert compile_batch([]) is None

    def test_bind_declines_unknown_and_ambiguous_columns(self):
        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE repo = 'repo-1'"
        ))
        assert plan.bind({}, ()) is None  # column not in this layout
        assert plan.bind({(None, "repo"): -1}, ()) is None  # ambiguous

    def test_bind_declines_out_of_range_parameter(self):
        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE repo = ?"
        ))
        assert plan.bind({(None, "repo"): 1}, ()) is None  # no params bound
        preds = plan.bind({(None, "repo"): 1}, ("repo-1",))
        assert preds is not None
        assert preds[0]([0, "repo-1"]) is True
        assert preds[0]([0, "repo-9"]) is False
        assert preds[0]([0, None]) is None  # NULL = x is unknown, not kept

    def test_col_vs_col_binds_both_indices(self):
        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE repo = branch"
        ))
        preds = plan.bind({(None, "repo"): 0, (None, "branch"): 1}, ())
        assert preds[0](["same", "same"]) is True
        assert preds[0](["one", "two"]) is False
        assert preds[0]([None, None]) is None  # NULL = NULL is unknown

    def test_unresolved_column_without_outer_declines(self):
        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE repo = branch"
        ))
        assert plan.bind({(None, "repo"): 0}, ()) is None

    def test_outer_reference_resolves_lazily_once(self):
        class CountingOuter:
            def __init__(self):
                self.calls = 0

            def resolve(self, key, table, column):
                self.calls += 1
                assert key == (table, column) == ("a", "time")
                return 30

        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates u WHERE u.time < a.time"
        ))
        outer = CountingOuter()
        preds = plan.bind({("u", "time"): 0, (None, "time"): 0}, (), outer)
        assert outer.calls == 0  # binding alone never reads the outer row
        assert preds[0]([10]) is True
        assert preds[0]([40]) is False
        assert preds[0]([None]) is None
        assert outer.calls == 1  # pinned after the first row

    def test_literal_node_reuse_is_safe_across_layouts(self):
        # The same compiled plan binds against two different layouts.
        plan = compile_batch(self._conjuncts(
            "SELECT * FROM updates WHERE time >= 5"
        ))
        low = plan.bind({(None, "time"): 0}, ())
        high = plan.bind({(None, "time"): 2}, ())
        assert low[0]([7, "x", "y"]) is True
        assert high[0]([0, "x", 7]) is True
        assert high[0]([7, "x", 0]) is False
