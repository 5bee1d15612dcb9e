"""Query execution for SealDB.

The executor walks parsed ASTs directly (no separate physical plan — with
materialised intermediates, the AST *is* the plan). Correlated subqueries
work through scope chaining: each row scope keeps a reference to the
enclosing scope, and column resolution walks outward.

Access paths are chosen per scan with :mod:`repro.sealdb.planner`: WHERE
conjuncts are pushed down through joins to the base-table scans they
constrain, equality predicates probe hash indexes, lower bounds on
append-sorted columns bisect instead of scanning, and equi-join
conditions run as build+probe hash joins. Residual predicates — anything
the planner cannot prove — go through :meth:`Executor._filter`: as flat
batch predicates (:mod:`repro.sealdb.vector`) when they bind, through a
per-row :class:`Scope` when binding declines. That is the only choice
the executor makes and it makes it from the predicate, never from a
setting; the differential suite holds the result to stdlib ``sqlite3``.

The executor counts every base-table row it materialises and every join
pairing it examines in :class:`ScanStats`; each :class:`Result` carries
the per-statement delta as ``rows_scanned`` so the checking layer can
report (and the simulator can charge for) rows actually touched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.sealdb import ast, planner, vector
from repro.sealdb.errors import SQLExecutionError
from repro.sealdb.functions import evaluate_aggregate, evaluate_scalar, is_aggregate
from repro.sealdb.table import SqlValue
from repro.sealdb.values import (
    arithmetic,
    bool_to_sql,
    concat,
    sort_key,
    sql_and,
    sql_compare,
    sql_like,
    sql_not,
    sql_or,
    sql_truth,
)

if TYPE_CHECKING:
    from repro.sealdb.engine import Database


@dataclass(frozen=True)
class ColumnInfo:
    """One column of an intermediate relation."""

    alias: str | None  # table alias this column is reachable through
    name: str
    hidden: bool = False  # suppressed from bare `*` (NATURAL JOIN duplicates)


_AMBIGUOUS = -1

#: What :meth:`Executor._probe_answer` returns when the SELECT must run.
_DECLINED = object()
#: A correlation-memo miss (a stored answer may be None).
_MISS = object()


class ColumnLayout(list):
    """The columns of one intermediate relation (a list of
    :class:`ColumnInfo`) together with their resolution map.

    The map — ``(qualifier, name) -> index``, ``-1`` marking ambiguity —
    is built on first use and stored on the list it describes, so it is
    freed with it: a statement's layouts die with the statement. Layouts
    are not mutated once a row has been resolved against them.
    """

    __slots__ = ("_resolution",)

    def resolution(self) -> dict[tuple[str | None, str], int]:
        try:
            return self._resolution
        except AttributeError:
            pass
        mapping: dict[tuple[str | None, str], int] = {}
        for i, info in enumerate(self):
            name_lower = info.name.lower()
            if info.alias is not None:
                key = (info.alias.lower(), name_lower)
                mapping[key] = _AMBIGUOUS if key in mapping else i
            if not info.hidden:
                key = (None, name_lower)
                mapping[key] = _AMBIGUOUS if key in mapping else i
        self._resolution = mapping
        return mapping


@dataclass
class Relation:
    """A materialised intermediate result."""

    columns: ColumnLayout
    rows: list[list[SqlValue]]


class Scope:
    """Column-resolution environment for one row, chained to outer scopes.
    :meth:`resolve` is the one walk outward and the one place "ambiguous"
    and "no such column" are raised."""

    __slots__ = ("columns", "row", "parent")

    def __init__(
        self,
        columns: ColumnLayout,
        row: Sequence[SqlValue],
        parent: "Scope | None" = None,
    ):
        self.columns = columns
        self.row = row
        self.parent = parent

    def resolve(self, key: tuple[str | None, str], table: str | None, column: str) -> SqlValue:
        """The value ``key`` names here or in the nearest enclosing scope;
        ``table``/``column`` are the reference as written, for errors."""
        scope = self
        while True:
            index = scope.columns.resolution().get(key)
            if index is not None:
                if index == _AMBIGUOUS:
                    raise SQLExecutionError(f"ambiguous column name: {column}")
                return scope.row[index]
            parent = scope.parent
            if parent is None:
                qualified = f"{table}.{column}" if table else column
                raise SQLExecutionError(f"no such column: {qualified}")
            if type(scope) is _Recorder:
                value = parent.resolve(key, table, column)
                scope.recorded[key] = value
                return value
            scope = parent


class GroupScope(Scope):
    """Resolution environment for one *group* of rows (aggregate queries).

    Non-aggregate column references resolve against a representative row
    and aggregate function calls are computed over every row in the
    group. The representative follows SQLite's bare-column rule: when the
    query has exactly one ``MIN()``/``MAX()`` aggregate, ``pick`` returns
    the row holding the extreme; otherwise it is the group's first row
    (all-NULL for an empty group).
    """

    __slots__ = ("rows", "_pick", "_representative")

    def __init__(
        self,
        columns: ColumnLayout,
        rows: list[Sequence[SqlValue]],
        parent: Scope | None = None,
        pick=None,
    ):
        self.columns = columns
        self.rows = rows
        self.parent = parent
        self._pick = pick
        self._representative: Sequence[SqlValue] | None = None

    @property
    def row(self) -> Sequence[SqlValue]:
        """The representative row, chosen on first use."""
        if self._representative is None:
            if not self.rows:
                self._representative = [None] * len(self.columns)
            elif self._pick is None:
                self._representative = self.rows[0]
            else:
                self._representative = self._pick(self)
        return self._representative

    def row_scopes(self) -> list[Scope]:
        return [Scope(self.columns, row, self.parent) for row in self.rows]


class _Recorder(Scope):
    """The boundary between a subquery and the scope it is evaluated in:
    no columns of its own, and every key resolved through it is recorded
    with its value. That is how the correlation memo learns which outer
    columns a subquery run read (:meth:`Executor._memoised`)."""

    __slots__ = ("recorded",)

    def __init__(self, outer: Scope):
        self.columns = _NO_COLUMNS
        self.row = ()
        self.parent = outer
        self.recorded: dict[tuple[str | None, str], SqlValue] = {}


#: The layout of a scope with no columns (never extended).
_NO_COLUMNS = ColumnLayout()


def _column_reader(key: tuple[str | None, str], table: str | None, column: str):
    """The compiled form of a column reference (``key`` is its
    :attr:`~repro.sealdb.ast.ColumnRef.key`): ``fn(scope, params)`` that
    reads the slot its layout's map binds ``key`` to, and walks outward
    (:meth:`Scope.resolve`) only when the key is not local."""

    def read(scope, params):
        index = scope.columns.resolution().get(key)
        if index is not None and index >= 0:
            return scope.row[index]
        return scope.resolve(key, table, column)

    return read


@dataclass
class ScanStats:
    """Cumulative row-touch accounting for one executor.

    ``rows_scanned`` counts base-table rows materialised by scans plus
    join pairings examined — the work a disk-backed engine would pay for.
    Index probes that skip rows simply don't count them; that is the
    point of the metric. ``rows_vectorized`` counts the subset of those
    rows filtered through batch predicates instead of per-row scopes —
    it never exceeds ``rows_scanned`` for scans, though pushed/leftover
    filters over already-counted rows can also vectorize, so the checking
    layer clamps when converting to cycles.
    """

    rows_scanned: int = 0
    rows_vectorized: int = 0
    index_probes: int = 0
    range_scans: int = 0
    full_scans: int = 0
    hash_joins: int = 0
    nested_loop_joins: int = 0


class Result:
    """Rows and column names returned by :meth:`Database.execute`."""

    def __init__(self, columns: list[str], rows: list[tuple[SqlValue, ...]], rowcount: int = -1):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount
        #: Base-table rows + join pairings this statement examined.
        self.rows_scanned = 0
        #: Subset of the examined rows filtered through batch predicates.
        self.rows_vectorized = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> tuple[SqlValue, ...] | None:
        return self.rows[0] if self.rows else None

    def scalar(self) -> SqlValue:
        """Value of the first column of the first row (None if empty)."""
        return self.rows[0][0] if self.rows else None

    def __repr__(self) -> str:
        return f"Result(columns={self.columns!r}, rows={len(self.rows)})"


class Executor:
    """Executes parsed statements against a :class:`Database` catalog."""

    def __init__(self, database: "Database"):
        self._db = database
        # Per-statement correlation memos by id(subquery AST).
        self._subquery_cache: dict[int, _Memo] = {}
        # Executor-lifetime memo of compiled expression closures.
        self._compiled: dict[int, tuple] = {}
        self.stats = ScanStats()
        # Planner memos, all identity-pinned against id() reuse:
        # conjunct lists per WHERE node, scan plans per (table ref,
        # conjunct set), alias sets per join node, and residual AND
        # trees per conjunct-id tuple (stable nodes keep the closure
        # memo effective).
        self._conjunct_lists: dict[int, tuple[ast.Expr, list[ast.Expr]]] = {}
        self._scan_plans: dict[tuple, tuple] = {}
        self._join_aliases: dict[int, tuple[ast.Join, set[str], set[str]]] = {}
        self._conjoined: dict[tuple[int, ...], tuple[tuple[ast.Expr, ...], ast.Expr | None]] = {}
        # Batch-predicate memo per predicate node (None = proven
        # unbatchable, also worth remembering).
        self._batch_plans: dict[int, tuple[ast.Expr, vector.BatchPredicate | None]] = {}
        # Probe plans per subquery node, pinned with the table and its
        # schema they were classified against.
        self._probe_plans: dict[int, _Probe] = {}

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------

    def execute(self, statement: ast.Statement, params: tuple[SqlValue, ...]) -> Result:
        self._subquery_cache = {}
        before = self.stats.rows_scanned
        before_vectorized = self.stats.rows_vectorized
        result = self._execute_statement(statement, params)
        result.rows_scanned = self.stats.rows_scanned - before
        result.rows_vectorized = self.stats.rows_vectorized - before_vectorized
        return result

    def _execute_statement(
        self, statement: ast.Statement, params: tuple[SqlValue, ...]
    ) -> Result:
        if isinstance(statement, ast.Select):
            relation, names = self.run_select(statement, params, outer=None)
            return Result(names, [tuple(row) for row in relation.rows])
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params)
        if isinstance(statement, ast.CreateTable):
            self._db.create_table(statement)
            return Result([], [], rowcount=0)
        if isinstance(statement, ast.CreateView):
            self._db.create_view(statement)
            return Result([], [], rowcount=0)
        if isinstance(statement, ast.DropObject):
            self._db.drop_object(statement)
            return Result([], [], rowcount=0)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def run_select(
        self,
        select: ast.Select,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> tuple[Relation, list[str]]:
        """Execute a SELECT; returns the result relation and output names."""
        relation, names, order_keys = self._select_core(select, params, outer)
        for op, rhs in select.compound:
            rhs_relation, rhs_names, _ = self._select_core(rhs, params, outer)
            if len(rhs_names) != len(names):
                raise SQLExecutionError("compound SELECT arity mismatch")
            relation = _combine(op, relation, rhs_relation)
            order_keys = None  # positional ORDER BY only after compounds
        if select.order_by:
            self._apply_order(select, relation, names, order_keys, params, outer)
        self._apply_limit(select, relation, params, outer)
        return relation, names

    def _select_core(
        self,
        select: ast.Select,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> tuple[Relation, list[str], list[list[SqlValue]] | None]:
        source_ast = select.source
        leftover = select.where
        if (
            leftover is not None
            and source_ast is not None
            and (
                (
                    isinstance(source_ast, ast.NamedTable)
                    and self._db.lookup_view(source_ast.name) is None
                )
                or isinstance(source_ast, ast.Join)
            )
        ):
            # Push the WHERE down: the scan/join applies every conjunct
            # itself (index probe, hash-join key or residual filter).
            conjuncts = self._split_cached(leftover)
            if isinstance(source_ast, ast.Join):
                source = self._join(source_ast, params, outer, pushed=conjuncts)
            else:
                source = self._planned_table_scan(source_ast, conjuncts, params, outer)
            leftover = None
        else:
            source = self._source_relation(source_ast, params, outer)

        if leftover is not None:
            source = self._apply_pushed(source, [leftover], params, outer)

        aggregated = bool(select.group_by) or any(
            next(_aggregate_calls(item.expr), None) is not None
            for item in select.items
        ) or (select.having is not None)

        items = self._expand_stars(select.items, source.columns)
        names = [_output_name(item) for item in items]

        order_exprs = [self._order_expr(o.expr, items, names) for o in select.order_by]

        out_rows: list[list[SqlValue]] = []
        order_keys: list[list[SqlValue]] = []

        item_fns = [self._compile(item.expr) for item in items]
        order_fns = [self._compile(e) for e in order_exprs]
        if aggregated:
            groups = self._group_rows(select, source, params, outer, items, names)
            pick = self._extreme_row_picker(select, items, order_exprs, params)
            having = None if select.having is None else self._compile(select.having)
            for group in groups:
                scope = GroupScope(source.columns, group, outer, pick)
                if having is not None and sql_truth(having(scope, params)) is not True:
                    continue
                out_rows.append([fn(scope, params) for fn in item_fns])
                order_keys.append([fn(scope, params) for fn in order_fns])
        else:
            for row in source.rows:
                scope = Scope(source.columns, row, outer)
                out_rows.append([fn(scope, params) for fn in item_fns])
                order_keys.append([fn(scope, params) for fn in order_fns])

        if select.distinct:
            out_rows, order_keys = _distinct_rows(out_rows, order_keys)

        relation = Relation(
            ColumnLayout(ColumnInfo(None, name) for name in names), out_rows
        )
        return relation, names, order_keys if select.order_by else None

    def _extreme_row_picker(
        self,
        select: ast.Select,
        items: list[ast.SelectItem],
        order_exprs: list[ast.Expr],
        params: tuple[SqlValue, ...],
    ):
        """SQLite's bare-column rule (https://www.sqlite.org/lang_select.html):
        with exactly one ``MIN()``/``MAX()`` aggregate in the query, bare
        columns come from the row holding the extreme. Returns the
        ``GroupScope -> row`` picker, or None for the first-row default.

        Ties keep the first row holding the extreme, as SQLite's
        accumulator does (it moves only on a strictly better value). A
        group whose values are all NULL has no extreme; SQLite's choice
        there depends on its plan, and SealDB keeps the first row."""
        calls: list[ast.FunctionCall] = []
        having = [select.having] if select.having is not None else []
        for expr in [item.expr for item in items] + having + order_exprs:
            for call in _aggregate_calls(expr):
                if (
                    call.name in ("MIN", "MAX")
                    and len(call.args) == 1
                    and call not in calls
                ):
                    calls.append(call)
        if len(calls) != 1:
            return None
        arg = self._compile(calls[0].args[0])
        want_max = calls[0].name == "MAX"

        def pick(group: GroupScope) -> Sequence[SqlValue]:
            best_row, best = group.rows[0], None
            for row_scope in group.row_scopes():
                value = arg(row_scope, params)
                if value is None:
                    continue
                if best is not None:
                    comparison = sql_compare(value, best)
                    if not comparison or (comparison > 0) != want_max:
                        continue
                best_row, best = row_scope.row, value
            return best_row

        return pick

    def _group_rows(
        self,
        select: ast.Select,
        source: Relation,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
        items: list[ast.SelectItem],
        names: list[str],
    ) -> list[list[list[SqlValue]]]:
        if not select.group_by:
            return [source.rows]
        group_fns = [
            self._compile(self._order_expr(e, items, names)) for e in select.group_by
        ]
        buckets: dict[tuple, list[list[SqlValue]]] = {}
        for row in source.rows:
            scope = Scope(source.columns, row, outer)
            key = tuple([fn(scope, params) for fn in group_fns])
            buckets.setdefault(key, []).append(row)
        return list(buckets.values())

    def _order_expr(
        self, expr: ast.Expr, items: list[ast.SelectItem], names: list[str]
    ) -> ast.Expr:
        """Resolve ORDER BY/GROUP BY aliases and 1-based positions."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise SQLExecutionError(f"ORDER BY position {position} out of range")
            return items[position - 1].expr
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item, name in zip(items, names):
                if item.alias is not None and item.alias.lower() == expr.column.lower():
                    return item.expr
        return expr

    def _apply_order(
        self,
        select: ast.Select,
        relation: Relation,
        names: list[str],
        order_keys: list[list[SqlValue]] | None,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> None:
        if order_keys is None:
            # Post-compound ordering: only output columns / positions.
            order_keys = []
            for row in relation.rows:
                scope = Scope(relation.columns, row, outer)
                keys = []
                for order in select.order_by:
                    expr = self._order_expr(
                        order.expr,
                        [ast.SelectItem(ast.ColumnRef(None, n), n) for n in names],
                        names,
                    )
                    keys.append(self._eval(expr, scope, params))
                order_keys.append(keys)
        directions = [order.descending for order in select.order_by]
        tagged = list(zip(order_keys, relation.rows))
        for index in reversed(range(len(directions))):
            tagged.sort(
                key=lambda pair: sort_key(pair[0][index]),
                reverse=directions[index],
            )
        relation.rows = [row for _, row in tagged]

    def _apply_limit(
        self,
        select: ast.Select,
        relation: Relation,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> None:
        if select.limit is None:
            return
        empty_scope = Scope(_NO_COLUMNS, [], outer)
        limit = self._eval(select.limit, empty_scope, params)
        offset = 0
        if select.offset is not None:
            offset = int(self._eval(select.offset, empty_scope, params) or 0)
        count = int(limit) if limit is not None else None
        rows = relation.rows[offset:]
        if count is not None and count >= 0:
            rows = rows[:count]
        relation.rows = rows

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], columns: ColumnLayout
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            star = item.expr
            matched = False
            for info in columns:
                if star.table is None:
                    if info.hidden:
                        continue
                else:
                    if info.alias is None or info.alias.lower() != star.table.lower():
                        continue
                expanded.append(
                    ast.SelectItem(ast.ColumnRef(info.alias, info.name), info.name)
                )
                matched = True
            if not matched:
                if star.table is not None:
                    raise SQLExecutionError(f"no such table: {star.table}")
                raise SQLExecutionError("SELECT * with no source columns")
        return expanded

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _source_relation(
        self,
        source: ast.TableRef | None,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
        pushed: list[ast.Expr] | None = None,
    ) -> Relation:
        """Materialise a FROM item. ``pushed`` conjuncts (WHERE-semantics
        predicates proven to read only this subtree + enclosing scopes)
        are fully applied by this call — via an access path when the
        subtree is a base table, a per-row filter otherwise."""
        if source is None:
            return Relation(ColumnLayout(), [[]])
        if isinstance(source, ast.NamedTable):
            if self._db.lookup_view(source.name) is None and pushed:
                return self._planned_table_scan(source, pushed, params, outer)
            return self._apply_pushed(
                self._named_relation(source, params), pushed, params, outer
            )
        if isinstance(source, ast.SubquerySource):
            inner, names = self.run_select(source.select, params, outer)
            columns = ColumnLayout(ColumnInfo(source.alias, name) for name in names)
            return self._apply_pushed(
                Relation(columns, inner.rows), pushed, params, outer
            )
        if isinstance(source, ast.Join):
            return self._join(source, params, outer, pushed)
        raise SQLExecutionError(f"unsupported FROM item {type(source).__name__}")

    def _named_relation(
        self, ref: ast.NamedTable, params: tuple[SqlValue, ...]
    ) -> Relation:
        alias = ref.alias or ref.name
        view = self._db.lookup_view(ref.name)
        if view is not None:
            inner, names = self.run_select(view, params, outer=None)
            columns = ColumnLayout(ColumnInfo(alias, name) for name in names)
            return Relation(columns, inner.rows)
        table = self._db.lookup_table(ref.name)
        columns = ColumnLayout(ColumnInfo(alias, c.name) for c in table.columns)
        self.stats.rows_scanned += len(table.rows)
        self.stats.full_scans += 1
        # Rows are shared, not copied: the executor never mutates row
        # lists in place (projection and joins build new lists), and DML
        # replaces whole rows. Correlated subqueries re-read tables per
        # outer row, so copying here would be quadratic.
        return Relation(columns, table.rows)

    def _apply_pushed(
        self,
        relation: Relation,
        pushed: list[ast.Expr] | None,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> Relation:
        predicate = self._conjoin_cached(pushed) if pushed else None
        if predicate is None:
            return relation
        return Relation(
            relation.columns,
            self._filter(relation.rows, relation.columns, predicate, params, outer),
        )

    def _filter(
        self,
        rows: list[list[SqlValue]],
        columns: ColumnLayout,
        predicate: ast.Expr | None,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
        lead: vector.RowPredicate | None = None,
    ) -> list[list[SqlValue]]:
        """The rows for which ``predicate`` is True: the executor's one
        filter loop.

        A predicate that binds as batch predicates runs as a flat
        ``row -> bool`` list and its input rows count as
        ``rows_vectorized`` (input, not survivors: the price is per row
        examined). One that declines — OR, LIKE, subqueries, expression
        operands, an unresolvable or ambiguous column — is evaluated per
        row through a :class:`Scope`, which is also where its errors are
        raised. ``lead`` is an already-bound check applied ahead of the
        predicate on either path (a table scan's range bound);
        ``predicate=None`` is pure materialisation, i.e. the batch loop
        with nothing in it."""
        preds = (
            []
            if predicate is None
            else self._bind_batch(predicate, columns, params, outer)
        )
        if preds is not None:
            self.stats.rows_vectorized += len(rows)
            if lead is not None:
                preds = [lead] + preds
            if not preds:
                return rows
            return [row for row in rows if all(pred(row) for pred in preds)]
        kept = []
        predicate_fn = self._compile(predicate)
        for row in rows:
            if lead is not None and not lead(row):
                continue
            if sql_truth(predicate_fn(Scope(columns, row, outer), params)) is True:
                kept.append(row)
        return kept

    def _planned_table_scan(
        self,
        ref: ast.NamedTable,
        conjuncts: list[ast.Expr],
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> Relation:
        """Scan a base table through the cheapest access path the planner
        found for ``conjuncts``; applies every conjunct before returning."""
        table = self._db.lookup_table(ref.name)
        alias = ref.alias or ref.name
        plan, full_predicate = self._scan_plan(ref, table, alias, conjuncts)
        columns = ColumnLayout(ColumnInfo(alias, c.name) for c in table.columns)
        rows = table.rows
        empty_scope = Scope(_NO_COLUMNS, [], outer)

        positions: Sequence[int] = range(len(rows))
        checks: list[tuple[planner.SortedBound, SqlValue]] = []
        residual = plan.residual
        try:
            if plan.lookups:
                cols = tuple(l.column_index for l in plan.lookups)
                key = tuple(
                    self._eval(l.value, empty_scope, params) for l in plan.lookups
                )
                positions = table.lookup(cols, key)
            bounds = [
                (bound, self._eval(bound.bound, empty_scope, params))
                for bound in plan.bounds
            ]
        except SQLExecutionError:
            # A lookup key / bound failed to evaluate ahead of the scan
            # (e.g. an unresolvable outer reference). Scan everything and
            # evaluate the original predicate per row, so the error is
            # raised only if a row actually reaches it.
            positions = range(len(rows))
            residual = full_predicate
            self.stats.full_scans += 1
        else:
            if plan.lookups:
                self.stats.index_probes += 1
            start, end = 0, len(positions)
            null_bound = False
            for bound, value in bounds:
                if value is None:
                    # A comparison with NULL is never true.
                    null_bound = True
                    break
                cut = table.sorted_cut(
                    bound.column_index, positions, value, bound.bisect_right
                )
                if cut is None:
                    # Sorted hint lost after planning, or a bound that is
                    # not a real number: keep it as a per-row check.
                    checks.append((bound, value))
                elif bound.upper:
                    end = min(end, cut)
                else:
                    start = max(start, cut)
            if null_bound:
                positions, checks = (), []
            else:
                positions = positions[start:max(start, end)]
                if not plan.lookups:
                    if len(checks) < len(bounds):
                        self.stats.range_scans += 1
                    else:
                        self.stats.full_scans += 1

        range_pred: vector.RowPredicate | None = None
        if checks:
            bound_checks = tuple(
                (bound.column_index, value, bound.upper, bound.inclusive)
                for bound, value in checks
            )

            def range_pred(row, _checks=bound_checks):
                for i, value, upper, inclusive in _checks:
                    comparison = sql_compare(row[i], value)
                    if comparison is None or not (
                        (comparison < 0 if upper else comparison > 0)
                        or (comparison == 0 and inclusive)
                    ):
                        return False
                return True

        # Every row the access path yields is priced, whether or not it
        # then survives the range bound or the residual.
        candidates = [rows[i] for i in positions]
        self.stats.rows_scanned += len(candidates)
        return Relation(
            columns,
            self._filter(candidates, columns, residual, params, outer, range_pred),
        )

    def _join(
        self,
        join: ast.Join,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
        pushed: list[ast.Expr] | None = None,
    ) -> Relation:
        left_aliases, right_aliases = self._leg_aliases(join)
        on_conjuncts = self._split_cached(join.condition)
        where_conjuncts = pushed or []

        push_left: list[ast.Expr] = []
        push_right: list[ast.Expr] = []
        match_conjuncts: list[ast.Expr] = []
        post_conjuncts: list[ast.Expr] = []
        if join.kind == "LEFT":
            # ON conjuncts only govern matching (a failed match pads with
            # NULLs, it does not drop the left row), so they cannot move.
            # WHERE conjuncts on the left leg alone can sink below the
            # join; the rest must run after padding.
            match_conjuncts = list(on_conjuncts)
            for conjunct in where_conjuncts:
                leg = planner.attribute_to_leg(conjunct, left_aliases, right_aliases)
                if leg == "left":
                    push_left.append(conjunct)
                else:
                    post_conjuncts.append(conjunct)
        else:
            # INNER/CROSS: ON and WHERE conjuncts are interchangeable.
            for conjunct in on_conjuncts + where_conjuncts:
                leg = planner.attribute_to_leg(conjunct, left_aliases, right_aliases)
                if leg == "left":
                    push_left.append(conjunct)
                elif leg == "right":
                    push_right.append(conjunct)
                else:
                    match_conjuncts.append(conjunct)

        left = self._source_relation(join.left, params, outer, push_left)
        right = self._source_relation(join.right, params, outer, push_right)

        relation = self._hash_or_nested_join(
            join, left, right, match_conjuncts, params, outer
        )
        return self._apply_pushed(relation, post_conjuncts, params, outer)

    def _join_shape(
        self, join: ast.Join, left: Relation, right: Relation
    ) -> tuple[list[tuple[int, int]], ColumnLayout]:
        """NATURAL/USING key pairs plus the combined column layout."""
        hidden_right: set[int] = set()
        equal_pairs: list[tuple[int, int]] = []
        shared_names: list[str] = []
        if join.natural:
            left_names = {c.name.lower() for c in left.columns if not c.hidden}
            shared_names = [
                c.name
                for c in right.columns
                if not c.hidden and c.name.lower() in left_names
            ]
        elif join.using:
            shared_names = list(join.using)
        for name in shared_names:
            left_index = _find_column(left.columns, name)
            right_index = _find_column(right.columns, name)
            equal_pairs.append((left_index, right_index))
            hidden_right.add(right_index)
        combined_columns = ColumnLayout(left.columns)
        combined_columns.extend(
            ColumnInfo(c.alias, c.name, hidden=c.hidden or (i in hidden_right))
            for i, c in enumerate(right.columns)
        )
        return equal_pairs, combined_columns

    def _nested_loop_join(
        self,
        join: ast.Join,
        left: Relation,
        right: Relation,
        combined_columns: ColumnLayout,
        pair_condition: ast.Expr | None,
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> Relation:
        """Cross product filtered by ``pair_condition``: the join of last
        resort, entered only when there is no equality to hash on."""
        rows: list[list[SqlValue]] = []
        right_width = len(right.columns)
        self.stats.rows_scanned += len(left.rows) * len(right.rows)
        self.stats.nested_loop_joins += 1
        condition = None if pair_condition is None else self._compile(pair_condition)
        for left_row in left.rows:
            matched = False
            for right_row in right.rows:
                combined = list(left_row) + list(right_row)
                if condition is not None:
                    scope = Scope(combined_columns, combined, outer)
                    if sql_truth(condition(scope, params)) is not True:
                        continue
                rows.append(combined)
                matched = True
            if join.kind == "LEFT" and not matched:
                rows.append(list(left_row) + [None] * right_width)
        return Relation(combined_columns, rows)

    def _hash_or_nested_join(
        self,
        join: ast.Join,
        left: Relation,
        right: Relation,
        match_conjuncts: list[ast.Expr],
        params: tuple[SqlValue, ...],
        outer: Scope | GroupScope | None,
    ) -> Relation:
        equal_pairs, combined_columns = self._join_shape(join, left, right)

        def resolver(columns: ColumnLayout):
            mapping = columns.resolution()

            def resolve(ref: ast.ColumnRef) -> int | None:
                index = mapping.get(ref.key)
                return None if index in (None, _AMBIGUOUS) else index

            return resolve

        extracted, residual_conjuncts = planner.extract_equi_pairs(
            match_conjuncts, resolver(left.columns), resolver(right.columns)
        )
        all_pairs = equal_pairs + extracted
        residual = self._conjoin_cached(residual_conjuncts)

        if not all_pairs:
            return self._nested_loop_join(
                join, left, right, combined_columns, residual, params, outer
            )

        # Build on the right, probe from the left. Build skips NULL keys
        # (SQL `=` never matches NULL) and keeps per-key row order, so
        # output ordering matches the nested loop's exactly.
        self.stats.hash_joins += 1
        right_keys = tuple(r for _, r in all_pairs)
        left_keys = tuple(l for l, _ in all_pairs)
        buckets: dict[tuple, list[list[SqlValue]]] = {}
        for right_row in right.rows:
            key = tuple(right_row[i] for i in right_keys)
            if None not in key:
                buckets.setdefault(key, []).append(right_row)
        scanned = len(left.rows) + len(right.rows)

        rows: list[list[SqlValue]] = []
        right_width = len(right.columns)
        empty: list[list[SqlValue]] = []
        probe_preds: list[vector.RowPredicate] | None = None
        # What the general probe loop below batches ahead of Scope
        # evaluation, and what Scope evaluation still owes a pairing the
        # prefix accepted. An empty prefix owes the whole residual.
        prefix_preds: list[vector.RowPredicate] = []
        rest = residual
        if join.kind != "LEFT":
            # No NULL padding to track: the probe loop is a key lookup +
            # row concatenation, plus — when the residual binds against
            # the combined layout — a flat batched filter per pairing.
            # (LEFT joins keep the general loop: padding needs match
            # tracking interleaved with residual evaluation.)
            if residual is None:
                probe_preds = []
            else:
                probe_preds = self._bind_batch(
                    residual, combined_columns, params, outer
                )
                if probe_preds is None and len(residual_conjuncts) > 1:
                    # Mixed residual: peel the longest batchable
                    # *prefix* of the conjunct list. A prefix-False
                    # verdict rejects the pairing exactly where the
                    # Scope path's AND chain would short-circuit;
                    # anything else falls through to Scope evaluation
                    # (the full residual on an unknown prefix verdict,
                    # because an AND chain keeps evaluating — with side
                    # effects such as subquery scans — past a NULL
                    # conjunct).
                    taken = 0
                    for conjunct in residual_conjuncts:
                        bound = self._bind_batch(
                            conjunct, combined_columns, params, outer
                        )
                        if bound is None:
                            break
                        prefix_preds.extend(bound)
                        taken += 1
                    if taken:
                        rest = self._conjoin_cached(residual_conjuncts[taken:])
        if probe_preds is not None:
            pairings = 0
            for left_row in left.rows:
                key = tuple(left_row[i] for i in left_keys)
                candidates = empty if None in key else buckets.get(key, empty)
                if not candidates:
                    continue
                pairings += len(candidates)
                if probe_preds:
                    for right_row in candidates:
                        combined = list(left_row) + list(right_row)
                        if all(pred(combined) for pred in probe_preds):
                            rows.append(combined)
                else:
                    rows.extend(
                        list(left_row) + list(right_row) for right_row in candidates
                    )
            self.stats.rows_scanned += scanned + pairings
            # Build, probe and pairing rows all ran the flat columnar
            # loop (key extraction, bucket lookup, batched residual) —
            # the whole join is one vectorized operation. The general
            # loop below counts only what its prefix decides, even
            # though its build side is the same loop: a join is priced
            # columnar only when every phase of it is.
            self.stats.rows_vectorized += scanned + pairings
            return Relation(combined_columns, rows)
        # Only pairings the batched prefix fully decides (rejects) count
        # as vectorized: kept and unknown-verdict pairings still pay the
        # Scope walk for the unbatchable remainder.
        decided = 0
        residual_fn = None if residual is None else self._compile(residual)
        rest_fn = None if rest is None else self._compile(rest)
        for left_row in left.rows:
            key = tuple(left_row[i] for i in left_keys)
            candidates = empty if None in key else buckets.get(key, empty)
            scanned += len(candidates)
            matched = False
            for right_row in candidates:
                combined = list(left_row) + list(right_row)
                verdict: bool | None = True
                for pred in prefix_preds:
                    value = pred(combined)
                    if value is False:
                        verdict = False
                        break
                    if value is None:
                        verdict = None
                if verdict is False:
                    decided += 1
                    continue
                owed = residual_fn if verdict is None else rest_fn
                if owed is not None:
                    scope = Scope(combined_columns, combined, outer)
                    if sql_truth(owed(scope, params)) is not True:
                        continue
                rows.append(combined)
                matched = True
            if join.kind == "LEFT" and not matched:
                rows.append(list(left_row) + [None] * right_width)
        self.stats.rows_scanned += scanned
        self.stats.rows_vectorized += decided
        return Relation(combined_columns, rows)

    # ------------------------------------------------------------------
    # Planner memos (identity-pinned, like the closure cache)
    # ------------------------------------------------------------------

    def _batch_predicate(self, predicate: ast.Expr) -> vector.BatchPredicate | None:
        entry = self._batch_plans.get(id(predicate))
        if entry is not None and entry[0] is predicate:
            return entry[1]
        plan = vector.compile_batch(self._split_cached(predicate))
        if len(self._batch_plans) > 8192:
            self._batch_plans.clear()
        self._batch_plans[id(predicate)] = (predicate, plan)
        return plan

    def _bind_batch(
        self,
        predicate: ast.Expr,
        columns: ColumnLayout,
        params: tuple[SqlValue, ...],
        outer: "Scope | GroupScope | None" = None,
    ) -> list[vector.RowPredicate] | None:
        """Bound batch predicates for one scan, or None when compiling
        or binding declines. ``outer`` lets correlated references bind
        as lazy per-scan constants."""
        plan = self._batch_predicate(predicate)
        if plan is None:
            return None
        return plan.bind(columns.resolution(), params, outer)

    def _split_cached(self, expr: ast.Expr | None) -> list[ast.Expr]:
        if expr is None:
            return []
        entry = self._conjunct_lists.get(id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1]
        parts = planner.split_conjuncts(expr)
        if len(self._conjunct_lists) > 8192:
            self._conjunct_lists.clear()
        self._conjunct_lists[id(expr)] = (expr, parts)
        return parts

    def _conjoin_cached(self, conjuncts: list[ast.Expr]) -> ast.Expr | None:
        """Rebuild an AND tree, returning the *same* node for the same
        conjunct set so the compiled-closure memo keeps hitting."""
        if not conjuncts:
            return None
        if len(conjuncts) == 1:
            return conjuncts[0]
        key = tuple(id(c) for c in conjuncts)
        entry = self._conjoined.get(key)
        if entry is not None and all(a is b for a, b in zip(entry[0], conjuncts)):
            return entry[1]
        combined = planner.conjoin(conjuncts)
        if len(self._conjoined) > 8192:
            self._conjoined.clear()
        self._conjoined[key] = (tuple(conjuncts), combined)
        return combined

    def _scan_plan(
        self,
        ref: ast.NamedTable,
        table,
        alias: str,
        conjuncts: list[ast.Expr],
    ) -> tuple[planner.ScanPlan, ast.Expr | None]:
        key = (id(ref), tuple(id(c) for c in conjuncts))
        entry = self._scan_plans.get(key)
        if (
            entry is not None
            and entry[0] is ref
            and entry[1] is table.columns  # replan if the schema changed
            and all(a is b for a, b in zip(entry[2], conjuncts))
        ):
            return entry[3], entry[4]
        plan = planner.plan_scan(table, alias, conjuncts)
        full_predicate = self._conjoin_cached(conjuncts)
        if len(self._scan_plans) > 8192:
            self._scan_plans.clear()
        self._scan_plans[key] = (ref, table.columns, tuple(conjuncts), plan, full_predicate)
        return plan, full_predicate

    def _leg_aliases(self, join: ast.Join) -> tuple[set[str], set[str]]:
        entry = self._join_aliases.get(id(join))
        if entry is not None and entry[0] is join:
            return entry[1], entry[2]
        left = planner.collect_aliases(join.left)
        right = planner.collect_aliases(join.right)
        if len(self._join_aliases) > 8192:
            self._join_aliases.clear()
        self._join_aliases[id(join)] = (join, left, right)
        return left, right

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, params: tuple[SqlValue, ...]) -> Result:
        table = self._db.lookup_table(stmt.table)
        if stmt.columns:
            indexes = [table.column_index(name) for name in stmt.columns]
        else:
            indexes = list(range(len(table.columns)))

        def build_full_row(values: list[SqlValue]) -> list[SqlValue]:
            if len(values) != len(indexes):
                raise SQLExecutionError(
                    f"INSERT expects {len(indexes)} values, got {len(values)}"
                )
            full: list[SqlValue] = [None] * len(table.columns)
            for index, value in zip(indexes, values):
                full[index] = value
            return full

        inserted = 0
        if stmt.select is not None:
            relation, _ = self.run_select(stmt.select, params, outer=None)
            for row in relation.rows:
                table.insert_row(build_full_row(list(row)))
                inserted += 1
        else:
            scope = Scope(_NO_COLUMNS, [])
            for value_exprs in stmt.rows:
                values = [self._eval(e, scope, params) for e in value_exprs]
                table.insert_row(build_full_row(values))
                inserted += 1
        return Result([], [], rowcount=inserted)

    def _execute_delete(self, stmt: ast.Delete, params: tuple[SqlValue, ...]) -> Result:
        table = self._db.lookup_table(stmt.table)
        columns = ColumnLayout(ColumnInfo(stmt.table, c.name) for c in table.columns)
        if stmt.where is None:
            deleted = len(table.rows)
            table.delete_rows([False] * len(table.rows))
            return Result([], [], rowcount=deleted)
        # Evaluate the predicate for every row *before* mutating, so
        # subqueries over the same table see a consistent snapshot.
        self.stats.rows_scanned += len(table.rows)
        keep_mask = []
        where = self._compile(stmt.where)
        for row in list(table.rows):
            keep_mask.append(sql_truth(where(Scope(columns, row), params)) is not True)
        deleted = table.delete_rows(keep_mask)
        return Result([], [], rowcount=deleted)

    def _execute_update(self, stmt: ast.Update, params: tuple[SqlValue, ...]) -> Result:
        table = self._db.lookup_table(stmt.table)
        columns = ColumnLayout(ColumnInfo(stmt.table, c.name) for c in table.columns)
        assignments = [
            (table.column_index(name), self._compile(expr))
            for name, expr in stmt.assignments
        ]
        where = None if stmt.where is None else self._compile(stmt.where)
        pending: list[tuple[int, dict[int, SqlValue]]] = []
        self.stats.rows_scanned += len(table.rows)
        for index, row in enumerate(table.rows):
            scope = Scope(columns, row)
            if where is not None and sql_truth(where(scope, params)) is not True:
                continue
            new_values = {
                col_index: fn(scope, params) for col_index, fn in assignments
            }
            pending.append((index, new_values))
        for index, new_values in pending:
            table.update_row(index, new_values)
        return Result([], [], rowcount=len(pending))

    # ------------------------------------------------------------------
    # Expression evaluation (closure compilation)
    # ------------------------------------------------------------------
    #
    # Expressions are compiled once per AST node into nested closures of
    # signature ``fn(scope, params) -> SqlValue``; evaluation then avoids
    # per-row type dispatch entirely. Compiled closures are memoised for
    # the executor's lifetime (AST nodes are immutable and pinned by the
    # entry, so id() reuse is detected with an identity check) — except a
    # bare column reference, whose reader is as cheap to build as to look
    # up, and which star expansion builds afresh for every statement.

    def _eval(
        self,
        expr: ast.Expr,
        scope: Scope | GroupScope,
        params: tuple[SqlValue, ...],
    ) -> SqlValue:
        return self._compile(expr)(scope, params)

    def _compile(self, expr: ast.Expr):
        if isinstance(expr, ast.ColumnRef):
            return _column_reader(expr.key, expr.table, expr.column)
        entry = self._compiled.get(id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1]
        fn = self._build_closure(expr)
        if len(self._compiled) > 16384:
            self._compiled.clear()
        self._compiled[id(expr)] = (expr, fn)
        return fn

    def _build_closure(self, expr: ast.Expr):
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda scope, params: value
        if isinstance(expr, ast.Parameter):
            index = expr.index

            def param_fn(scope, params):
                if index >= len(params):
                    raise SQLExecutionError(
                        f"statement requires at least {index + 1} parameters, "
                        f"got {len(params)}"
                    )
                return params[index]

            return param_fn
        if isinstance(expr, ast.Unary):
            return self._build_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._build_binary(expr)
        if isinstance(expr, ast.IsNull):
            operand = self._compile(expr.operand)
            if expr.negated:
                return lambda scope, params: bool_to_sql(
                    operand(scope, params) is not None
                )
            return lambda scope, params: bool_to_sql(operand(scope, params) is None)
        if isinstance(expr, ast.Between):
            return self._build_between(expr)
        if isinstance(expr, ast.Like):
            operand = self._compile(expr.operand)
            pattern = self._compile(expr.pattern)
            negated = expr.negated

            def like_fn(scope, params):
                result = sql_like(operand(scope, params), pattern(scope, params))
                return bool_to_sql(sql_not(result) if negated else result)

            return like_fn
        if isinstance(expr, ast.InList):
            operand = self._compile(expr.operand)
            items = [self._compile(item) for item in expr.items]
            negated = expr.negated
            return lambda scope, params: self._eval_in(
                operand(scope, params),
                [item(scope, params) for item in items],
                negated,
            )
        if isinstance(expr, ast.InSelect):
            return self._build_in_select(expr)
        if isinstance(expr, ast.ScalarSelect):
            return self._build_scalar_select(expr)
        if isinstance(expr, ast.ExistsSelect):
            return self._build_exists(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._build_function(expr)
        if isinstance(expr, ast.Case):
            return self._build_case(expr)
        if isinstance(expr, ast.Star):
            def star_fn(scope, params):
                raise SQLExecutionError(
                    "'*' is only valid in a select list or COUNT(*)"
                )

            return star_fn
        raise SQLExecutionError(f"cannot evaluate {type(expr).__name__}")

    def _build_unary(self, expr: ast.Unary):
        operand = self._compile(expr.operand)
        if expr.op == "NOT":
            return lambda scope, params: bool_to_sql(
                sql_not(sql_truth(operand(scope, params)))
            )
        op = expr.op
        literal = expr.operand
        if isinstance(literal, ast.Literal) and type(literal.value) in (int, float):
            value = arithmetic(op, 0, literal.value)  # a signed number: fold it
            return lambda scope, params: value

        def sign_fn(scope, params):
            value = operand(scope, params)
            if value is None:
                return None
            return arithmetic(op, 0, value)

        return sign_fn

    def _build_binary(self, expr: ast.Binary):
        op = expr.op
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        if op == "AND":

            def and_fn(scope, params):
                lhs = sql_truth(left(scope, params))
                if lhs is False:
                    return 0
                return bool_to_sql(sql_and(lhs, sql_truth(right(scope, params))))

            return and_fn
        if op == "OR":

            def or_fn(scope, params):
                lhs = sql_truth(left(scope, params))
                if lhs is True:
                    return 1
                return bool_to_sql(sql_or(lhs, sql_truth(right(scope, params))))

            return or_fn
        if op in ("=", "==", "!=", "<", "<=", ">", ">="):
            predicates = {
                "=": lambda c: c == 0,
                "==": lambda c: c == 0,
                "!=": lambda c: c != 0,
                "<": lambda c: c < 0,
                "<=": lambda c: c <= 0,
                ">": lambda c: c > 0,
                ">=": lambda c: c >= 0,
            }
            predicate = predicates[op]

            def compare_fn(scope, params):
                comparison = sql_compare(left(scope, params), right(scope, params))
                if comparison is None:
                    return None
                return 1 if predicate(comparison) else 0

            return compare_fn
        if op == "||":
            return lambda scope, params: concat(
                left(scope, params), right(scope, params)
            )
        return lambda scope, params: arithmetic(
            op, left(scope, params), right(scope, params)
        )

    def _build_between(self, expr: ast.Between):
        operand = self._compile(expr.operand)
        low = self._compile(expr.low)
        high = self._compile(expr.high)
        negated = expr.negated

        def between_fn(scope, params):
            value = operand(scope, params)
            low_cmp = sql_compare(value, low(scope, params))
            high_cmp = sql_compare(value, high(scope, params))
            ge_low = None if low_cmp is None else low_cmp >= 0
            le_high = None if high_cmp is None else high_cmp <= 0
            result = sql_and(ge_low, le_high)
            return bool_to_sql(sql_not(result) if negated else result)

        return between_fn

    def _build_in_select(self, expr: ast.InSelect):
        operand = self._compile(expr.operand)
        select = expr.select
        negated = expr.negated

        def run_in(outer, params) -> list[SqlValue]:
            relation, names = self.run_select(select, params, outer=outer)
            if len(names) != 1:
                raise SQLExecutionError("IN subquery must return one column")
            return [row[0] for row in relation.rows]

        subquery = self._memoised(select, None, run_in)

        def in_select_fn(scope, params):
            values = subquery(scope, params)
            return self._eval_in(operand(scope, params), values, negated)

        return in_select_fn

    def _build_scalar_select(self, expr: ast.ScalarSelect):
        select = expr.select

        def run_scalar(outer, params) -> SqlValue:
            relation, names = self.run_select(select, params, outer=outer)
            if len(names) != 1:
                raise SQLExecutionError("scalar subquery must return one column")
            return relation.rows[0][0] if relation.rows else None

        return self._memoised(select, False, run_scalar)

    def _build_exists(self, expr: ast.ExistsSelect):
        select = expr.select
        negated = expr.negated
        probe = select
        if probe.limit is None and not probe.compound:
            # EXISTS only needs one row; short-circuit the scan.
            probe = replace(probe, limit=ast.Literal(1))

        def run_exists(outer, params) -> bool:
            relation, _ = self.run_select(probe, params, outer=outer)
            return bool(relation.rows)

        exists = self._memoised(select, True, run_exists)
        return lambda scope, params: bool_to_sql(exists(scope, params) != negated)

    def _probe_entry(self, select: ast.Select, exists: bool) -> "_Probe | None":
        """The probe (:func:`repro.sealdb.planner.plan_probe`) that answers
        ``select`` now, or None: no probe shape, not a base table (the
        SELECT says what it is), or a lost sorted hint."""
        source = select.source
        if not isinstance(source, ast.NamedTable):
            return None
        try:
            table = self._db.lookup_table(source.name)
        except SQLExecutionError:
            return None
        entry = self._probe_plans.get(id(select))
        if (
            entry is None
            or entry.select is not select
            or entry.table is not table
            or entry.schema is not table.columns  # replan if the schema changed
        ):
            entry = _Probe(
                select, table, planner.plan_probe(select, table, exists), self._compile
            )
            if len(self._probe_plans) > 8192:
                self._probe_plans.clear()
            self._probe_plans[id(select)] = entry
        plan = entry.plan
        if plan is None:
            return None
        column = plan.sorted_column
        if column is not None and not table.is_sorted(column):
            return None
        return entry

    def _probe_answer(self, entry: "_Probe", inputs: Sequence[SqlValue]):
        """Answer a probe from its lookup values and bound: one index
        lookup, one bisect of the ascending bucket on the sorted column,
        at most one row read. :data:`_DECLINED` — and the SELECT runs —
        on a NULL or non-real bound.

        Among rows sharing the top value the first-stored one answers:
        the SELECT's stable sort puts it first, and ``MAX`` replaces its
        running best only on a strictly greater value."""
        plan, table = entry.plan, entry.table
        column = plan.sorted_column
        positions = table.lookup(entry.cols, tuple(inputs[: len(entry.cols)]))
        end: int | None = len(positions)
        if plan.bound is not None:
            end = table.sorted_cut(column, positions, inputs[-1], plan.bound.bisect_right)
            if end is None:
                return _DECLINED  # NULL or not a real number
        self.stats.index_probes += 1
        exists = plan.kind == "exists"
        if not end:
            return False if exists else None
        # The one row read is a flat positional access, priced like the
        # batch loop the bucket scan it replaces ran in.
        self.stats.rows_scanned += 1
        self.stats.rows_vectorized += 1
        if exists:
            return True
        rows = table.rows
        top = rows[positions[end - 1]][column]
        first = bisect_left(positions, top, 0, end, key=lambda p: rows[p][column])
        row = rows[positions[first]]
        return row[column if plan.kind == "max" else plan.value_column]

    def _build_function(self, expr: ast.FunctionCall):
        name = expr.name
        if expr.star or is_aggregate(name, len(expr.args)):
            star = expr.star
            distinct = expr.distinct
            if not star and len(expr.args) != 1:
                raise SQLExecutionError(
                    f"aggregate {name}() takes exactly one argument"
                )
            arg = None if star else self._compile(expr.args[0])

            def aggregate_fn(scope, params):
                if not isinstance(scope, GroupScope):
                    raise SQLExecutionError(
                        f"aggregate {name}() used outside an aggregate context"
                    )
                if star:
                    values: list[SqlValue] = [1] * len(scope.rows)
                else:
                    values = [
                        arg(row_scope, params) for row_scope in scope.row_scopes()
                    ]
                return evaluate_aggregate(name, values, distinct, star)

            return aggregate_fn
        arg_fns = [self._compile(arg) for arg in expr.args]
        return lambda scope, params: evaluate_scalar(
            name, [fn(scope, params) for fn in arg_fns]
        )

    def _build_case(self, expr: ast.Case):
        branches = [
            (self._compile(cond), self._compile(result))
            for cond, result in expr.branches
        ]
        default = self._compile(expr.default) if expr.default is not None else None
        operand = self._compile(expr.operand) if expr.operand is not None else None

        def case_fn(scope, params):
            if operand is not None:
                subject = operand(scope, params)
                for cond_fn, result_fn in branches:
                    if sql_compare(subject, cond_fn(scope, params)) == 0:
                        return result_fn(scope, params)
            else:
                for cond_fn, result_fn in branches:
                    if sql_truth(cond_fn(scope, params)) is True:
                        return result_fn(scope, params)
            if default is not None:
                return default(scope, params)
            return None

        return case_fn

    @staticmethod
    def _eval_in(
        operand: SqlValue, values: list[SqlValue], negated: bool
    ) -> SqlValue:
        if operand is None:
            return None
        found = False
        saw_null = False
        for value in values:
            comparison = sql_compare(operand, value)
            if comparison is None:
                saw_null = True
            elif comparison == 0:
                found = True
                break
        if found:
            result: bool | None = True
        elif saw_null:
            result = None
        else:
            result = False
        return bool_to_sql(sql_not(result) if negated else result)

    def _memoised(self, select: ast.Select, exists: bool | None, run):
        """Compile a subquery: ``fn(scope, params)`` answering ``run(outer,
        params)``, or its probe when ``exists`` names a probe shape (None:
        none), memoised by correlation values for the statement.

        A run sees the scope through a :class:`_Recorder`, which learns
        the outer columns it read; later evaluations read them with
        compiled readers and key each value with its type (SQL tells
        ``1`` from ``1.0``; Python's ``==`` does not). When those columns
        are exactly the probe's inputs, a miss is answered from the
        values just read, without a recorder."""
        ident = id(select)

        def subquery_fn(scope, params):
            memo = self._subquery_cache.get(ident)
            if memo is None:
                memo = self._subquery_cache[ident] = _Memo(
                    None if exists is None else self._probe_entry(select, exists)
                )
            values = None
            if memo.readers is not None:
                try:
                    values = [read(scope, params) for read in memo.readers]
                except SQLExecutionError:
                    values = None
                else:
                    key = (*values, *map(type, values))
                    hit = memo.hits.get(key, _MISS)
                    if hit is not _MISS:
                        return hit
            entry = memo.probe
            if values is not None and entry is not None and memo.names is entry.names:
                answer = self._probe_answer(entry, [values[i] for i in entry.slots])
                if answer is not _DECLINED:
                    memo.hits[key] = answer
                    return answer
            # A run through the recorder; a probe declined above declines
            # again here, having read its inputs in the same order.
            recorder = _Recorder(scope)
            answer = _DECLINED
            if entry is not None:
                try:
                    inputs = [fn(recorder, params) for fn in entry.inputs]
                except SQLExecutionError:
                    pass
                else:
                    answer = self._probe_answer(entry, inputs)
            if answer is _DECLINED:
                answer = run(recorder, params)
            names = tuple(recorder.recorded)
            if names != memo.names:
                memo.learn(entry.names if entry and entry.names == names else names)
            values = recorder.recorded.values()
            try:
                memo.hits[(*values, *map(type, values))] = answer
            except TypeError:
                pass  # unhashable correlation value: skip caching
            return answer

        return subquery_fn


class _Memo:
    """One subquery's correlation memo for one statement: table contents,
    hence its ``probe``, are stable while a statement evaluates (DML
    mutates only after evaluating). ``hits`` holds the answers by typed
    values of ``names``, the outer columns the latest run read;
    ``by_names`` keeps those learned under other names."""

    __slots__ = ("probe", "names", "readers", "hits", "by_names")

    def __init__(self, probe: "_Probe | None"):
        self.probe = probe
        self.names: tuple | None = None
        self.readers: list | None = None
        self.hits: dict = {}
        self.by_names: dict[tuple, dict] = {}

    def learn(self, names: tuple) -> None:
        self.names = names
        self.readers = [_column_reader(key, *key) for key in names]
        self.hits = self.by_names.setdefault(names, {})


class _Probe:
    """A :class:`~repro.sealdb.planner.ProbePlan` (None: no probe shape)
    pinned to the table and schema it was classified against, with its
    ``inputs`` (lookup values, then the bound) compiled. When every input
    is a column reference, a probe run reads exactly the outer columns
    ``names`` (each once, in order) and ``slots`` places each input in
    them; otherwise ``names`` is None."""

    __slots__ = ("select", "table", "schema", "plan", "cols", "inputs", "names", "slots")

    def __init__(self, select, table, plan: planner.ProbePlan | None, compile_expr):
        self.select, self.table, self.schema, self.plan = select, table, table.columns, plan
        self.names = None
        if plan is None:
            return
        self.cols = tuple(l.column_index for l in plan.lookups)
        exprs = [l.value for l in plan.lookups]
        if plan.bound is not None:
            exprs.append(plan.bound.bound)
        self.inputs = [compile_expr(expr) for expr in exprs]
        if all(isinstance(expr, ast.ColumnRef) for expr in exprs):
            self.names = tuple(dict.fromkeys(expr.key for expr in exprs))
            self.slots = [self.names.index(expr.key) for expr in exprs]


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _find_column(columns: ColumnLayout, name: str) -> int:
    lowered = name.lower()
    matches = [
        i for i, c in enumerate(columns) if not c.hidden and c.name.lower() == lowered
    ]
    if not matches:
        raise SQLExecutionError(f"no such column in join: {name}")
    if len(matches) > 1:
        raise SQLExecutionError(f"ambiguous join column: {name}")
    return matches[0]


def _aggregate_calls(expr: ast.Expr) -> Iterator[ast.FunctionCall]:
    """Every aggregate call in ``expr`` (without entering subqueries)."""
    if isinstance(expr, ast.FunctionCall):
        if expr.star or is_aggregate(expr.name, len(expr.args)):
            yield expr
            return
        parts: Sequence[ast.Expr] = expr.args
    elif isinstance(expr, (ast.Unary, ast.IsNull, ast.InSelect)):
        parts = (expr.operand,)
    elif isinstance(expr, ast.Binary):
        parts = (expr.left, expr.right)
    elif isinstance(expr, ast.Between):
        parts = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, ast.Like):
        parts = (expr.operand, expr.pattern)
    elif isinstance(expr, ast.InList):
        parts = (expr.operand, *expr.items)
    elif isinstance(expr, ast.Case):
        parts = [e for pair in expr.branches for e in pair]
        if expr.operand is not None:
            parts.append(expr.operand)
        if expr.default is not None:
            parts.append(expr.default)
    else:
        return
    for part in parts:
        yield from _aggregate_calls(part)


def _output_name(item: ast.SelectItem) -> str:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column
    return _expr_text(item.expr)


def _expr_text(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Literal):
        return repr(expr.value) if expr.value is not None else "NULL"
    if isinstance(expr, ast.ColumnRef):
        return f"{expr.table}.{expr.column}" if expr.table else expr.column
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(_expr_text(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, ast.Binary):
        return f"{_expr_text(expr.left)} {expr.op} {_expr_text(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op} {_expr_text(expr.operand)}"
    return type(expr).__name__.lower()


def _distinct_rows(
    rows: list[list[SqlValue]], order_keys: list[list[SqlValue]]
) -> tuple[list[list[SqlValue]], list[list[SqlValue]]]:
    seen: set[tuple] = set()
    out_rows: list[list[SqlValue]] = []
    out_keys: list[list[SqlValue]] = []
    for row, keys in zip(rows, order_keys):
        marker = tuple(row)
        if marker in seen:
            continue
        seen.add(marker)
        out_rows.append(row)
        out_keys.append(keys)
    return out_rows, out_keys


def _combine(op: str, left: Relation, right: Relation) -> Relation:
    left_set = [tuple(r) for r in left.rows]
    right_set = [tuple(r) for r in right.rows]
    if op == "UNION ALL":
        combined = left_set + right_set
    elif op == "UNION":
        seen: set[tuple] = set()
        combined = []
        for row in left_set + right_set:
            if row not in seen:
                seen.add(row)
                combined.append(row)
    elif op == "EXCEPT":
        right_only = set(right_set)
        seen = set()
        combined = []
        for row in left_set:
            if row not in right_only and row not in seen:
                seen.add(row)
                combined.append(row)
    elif op == "INTERSECT":
        right_only = set(right_set)
        seen = set()
        combined = []
        for row in left_set:
            if row in right_only and row not in seen:
                seen.add(row)
                combined.append(row)
    else:
        raise SQLExecutionError(f"unknown compound operator {op!r}")
    return Relation(left.columns, [list(r) for r in combined])
