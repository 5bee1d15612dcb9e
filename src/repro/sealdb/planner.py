"""Query planning for SealDB: pick access paths instead of scanning.

The planner stays deliberately small. It rewrites nothing; it only
*classifies* the conjuncts of a WHERE / ON clause against the relations
being read and hands the executor four kinds of opportunities:

- **equality lookups** — ``col = expr`` where ``expr`` does not read the
  scanned relation: the scan becomes a probe of a (composite) hash index
  on the table (see :meth:`repro.sealdb.table.Table.ensure_index`);
- **sorted bounds** — ``col > expr`` / ``col >= expr`` (a start) and
  ``col < expr`` / ``col <= expr`` (an end) on a column carrying the
  append-sorted hint: the scan, or the index bucket, is cut at bisected
  positions instead of filtered row by row (the audit log's ``time``
  columns qualify);
- **hash equi-joins** — ``a.x = b.y`` conjuncts of a join condition
  where the two sides resolve to opposite join legs: the nested loop
  becomes build + probe;
- **correlated probes** — a subquery over one base table whose WHERE is
  nothing but equality lookups plus at most one end bound on a sorted
  column, asking for the latest row (``ORDER BY col DESC LIMIT 1``), the
  ``MAX(col)``, or ``EXISTS``: it is answered by one index lookup and a
  bisect of the bucket, reading at most one row (:func:`plan_probe`).
  Among rows that share the top value the probe answers with the
  *first-stored* one, which is the row the stable sort (and ``MAX``'s
  strictly-greater scan) of the full evaluation yields.

Everything the planner cannot prove stays in a *residual* expression and
is evaluated row-at-a-time exactly as before, so planned and unplanned
execution are semantically identical (the property-test suite drives
randomized workloads through both). Classification is purely syntactic
and conservative: any conjunct containing a subquery, or whose column
references cannot be attributed unambiguously, is left residual, and a
subquery that does not match a probe shape exactly is run as a SELECT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.sealdb import ast
from repro.sealdb.table import Table

_EQ_OPS = ("=", "==")
# op -> (upper end, inclusive), for ``col OP expr``.
_BOUND_OPS = {
    ">": (False, False), ">=": (False, True), "<": (True, False), "<=": (True, True)
}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate over top-level ANDs into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Rebuild a single AND tree (left-deep, original order)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for part in conjuncts[1:]:
        combined = ast.Binary("AND", combined, part)
    return combined


def column_refs(expr: ast.Expr) -> Iterator[ast.ColumnRef]:
    """Yield every ColumnRef in ``expr`` (without entering subqueries)."""
    if isinstance(expr, ast.ColumnRef):
        yield expr
    elif isinstance(expr, ast.Unary):
        yield from column_refs(expr.operand)
    elif isinstance(expr, ast.Binary):
        yield from column_refs(expr.left)
        yield from column_refs(expr.right)
    elif isinstance(expr, ast.IsNull):
        yield from column_refs(expr.operand)
    elif isinstance(expr, ast.Between):
        for part in (expr.operand, expr.low, expr.high):
            yield from column_refs(part)
    elif isinstance(expr, ast.Like):
        yield from column_refs(expr.operand)
        yield from column_refs(expr.pattern)
    elif isinstance(expr, ast.InList):
        yield from column_refs(expr.operand)
        for item in expr.items:
            yield from column_refs(item)
    elif isinstance(expr, ast.InSelect):
        yield from column_refs(expr.operand)
    elif isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            yield from column_refs(arg)
    elif isinstance(expr, ast.Case):
        parts: list[ast.Expr] = [e for pair in expr.branches for e in pair]
        if expr.operand is not None:
            parts.append(expr.operand)
        if expr.default is not None:
            parts.append(expr.default)
        for part in parts:
            yield from column_refs(part)


def contains_subquery(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.InSelect, ast.ScalarSelect, ast.ExistsSelect)):
        return True
    if isinstance(expr, ast.Unary):
        return contains_subquery(expr.operand)
    if isinstance(expr, ast.Binary):
        return contains_subquery(expr.left) or contains_subquery(expr.right)
    if isinstance(expr, ast.IsNull):
        return contains_subquery(expr.operand)
    if isinstance(expr, ast.Between):
        return any(contains_subquery(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, ast.Like):
        return contains_subquery(expr.operand) or contains_subquery(expr.pattern)
    if isinstance(expr, ast.InList):
        return contains_subquery(expr.operand) or any(
            contains_subquery(i) for i in expr.items
        )
    if isinstance(expr, ast.FunctionCall):
        return any(contains_subquery(a) for a in expr.args)
    if isinstance(expr, ast.Case):
        parts: list[ast.Expr] = [e for pair in expr.branches for e in pair]
        if expr.operand is not None:
            parts.append(expr.operand)
        if expr.default is not None:
            parts.append(expr.default)
        return any(contains_subquery(p) for p in parts)
    return False


# --------------------------------------------------------------------------
# Base-table scans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityLookup:
    """One ``col = expr`` conjunct usable as an index probe."""

    column_index: int
    value: ast.Expr


@dataclass(frozen=True)
class SortedBound:
    """One ``col OP expr`` bound on a sorted column: a start (``>``,
    ``>=``) or, with ``upper``, an end (``<``, ``<=``)."""

    column_index: int
    bound: ast.Expr
    inclusive: bool
    upper: bool

    @property
    def bisect_right(self) -> bool:
        """Which bisect finds the cut: ``> b`` starts and ``<= b`` ends
        after the rows equal to ``b``; ``>= b`` and ``< b`` before them."""
        return self.inclusive == self.upper


@dataclass(frozen=True)
class ScanPlan:
    """Access-path choice for one base-table scan.

    ``residual`` holds every conjunct not consumed by the lookups/bounds;
    the executor evaluates it per candidate row. The lookup and bound
    conjuncts themselves are *not* re-evaluated: the index-key equality
    and the bisect cuts are exact under SQL semantics.
    """

    lookups: tuple[EqualityLookup, ...]
    range_start: SortedBound | None
    range_end: SortedBound | None
    residual: ast.Expr | None

    @property
    def bounds(self) -> tuple[SortedBound, ...]:
        return tuple(b for b in (self.range_start, self.range_end) if b is not None)

    @property
    def is_full_scan(self) -> bool:
        return not self.lookups and not self.bounds


def plan_scan(
    table: Table, alias: str, conjuncts: list[ast.Expr]
) -> ScanPlan:
    """Classify ``conjuncts`` for a scan of ``table`` visible as ``alias``.

    A conjunct becomes an equality lookup when it is ``col = expr`` (either
    side) with ``col`` a plain reference to the scanned table and ``expr``
    subquery-free and not reading the scanned table (so it is evaluable
    once, before the scan). The first lower and the first upper bound on
    append-sorted columns become the range start and end. Everything else
    is residual.
    """
    lookups: list[EqualityLookup] = []
    ends: dict[bool, SortedBound] = {}
    residual: list[ast.Expr] = []
    seen_cols: set[int] = set()
    for conjunct in conjuncts:
        lookup = _as_equality_lookup(conjunct, table, alias)
        if lookup is not None and lookup.column_index not in seen_cols:
            seen_cols.add(lookup.column_index)
            lookups.append(lookup)
            continue
        bound = _as_sorted_bound(conjunct, table, alias)
        if (
            bound is not None
            and bound.upper not in ends
            and table.is_sorted(bound.column_index)
        ):
            ends[bound.upper] = bound
            continue
        residual.append(conjunct)
    return ScanPlan(
        tuple(lookups), ends.get(False), ends.get(True), conjoin(residual)
    )


def _as_equality_lookup(
    expr: ast.Expr, table: Table, alias: str
) -> EqualityLookup | None:
    if not isinstance(expr, ast.Binary) or expr.op not in _EQ_OPS:
        return None
    for col_side, value_side in ((expr.left, expr.right), (expr.right, expr.left)):
        col = _local_column(col_side, table, alias)
        if col is not None and _independent_of(value_side, table, alias):
            return EqualityLookup(col, value_side)
    return None


def _as_sorted_bound(
    expr: ast.Expr, table: Table, alias: str
) -> SortedBound | None:
    """``col OP expr`` / ``expr OP col`` with ``OP`` an order comparison,
    ``col`` local and ``expr`` independent of the scanned table."""
    if not isinstance(expr, ast.Binary) or expr.op not in _BOUND_OPS:
        return None
    for op, col_side, value_side in (
        (expr.op, expr.left, expr.right),
        (_FLIPPED[expr.op], expr.right, expr.left),
    ):
        col = _local_column(col_side, table, alias)
        if col is not None and _independent_of(value_side, table, alias):
            upper, inclusive = _BOUND_OPS[op]
            return SortedBound(col, value_side, inclusive, upper)
    return None


def _local_column(expr: ast.Expr, table: Table, alias: str) -> int | None:
    """Column position when ``expr`` is a plain reference to the scanned
    table (``alias.col`` or a bare name matching one of its columns)."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table.lower() != alias.lower():
        return None
    lowered = expr.column.lower()
    for i, column in enumerate(table.columns):
        if column.name.lower() == lowered:
            return i
    return None


def _independent_of(expr: ast.Expr, table: Table, alias: str) -> bool:
    """True when ``expr`` provably does not read the scanned relation:
    no subqueries, and every column reference is either qualified with a
    different alias or a bare name the table does not define (so it must
    resolve in an enclosing scope)."""
    if contains_subquery(expr):
        return False
    names = {c.name.lower() for c in table.columns}
    for ref in column_refs(expr):
        if ref.table is None:
            if ref.column.lower() in names:
                return False
        elif ref.table.lower() == alias.lower():
            return False
    return True


# --------------------------------------------------------------------------
# Correlated probes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbePlan:
    """A subquery answered by one index lookup plus a bisect.

    ``kind`` is ``"latest"`` (``SELECT col … ORDER BY sorted DESC
    LIMIT 1``: ``value_column`` of the latest row), ``"max"``
    (``SELECT MAX(sorted) …``) or ``"exists"``. The bucket of
    ``lookups`` is cut at ``bound`` (an end on ``sorted_column``); the
    executor declines to run the probe, and runs the SELECT instead,
    whenever ``sorted_column`` has lost its sorted hint or the bound's
    value is not a real number.
    """

    kind: str
    lookups: tuple[EqualityLookup, ...]
    sorted_column: int | None
    bound: SortedBound | None
    value_column: int | None = None


def plan_probe(select: ast.Select, table: Table, exists: bool) -> ProbePlan | None:
    """Classify a scalar (``exists=False``) or ``EXISTS`` subquery over
    ``table`` as a probe, or None when its answer could depend on
    anything a lookup and one bisect cannot see.

    The FROM is the one base table; the WHERE is only equality lookups
    (at least one) plus at most one upper bound; there is no GROUP BY,
    HAVING, OFFSET or compound, and every select item reads the table
    directly, so no per-row evaluation the probe skips could raise.
    """
    source = select.source
    if (
        not isinstance(source, ast.NamedTable)
        or select.compound
        or select.group_by
        or select.having is not None
        or select.offset is not None
    ):
        return None
    alias = source.alias or source.name
    lookups: list[EqualityLookup] = []
    bound: SortedBound | None = None
    for conjunct in split_conjuncts(select.where):
        lookup = _as_equality_lookup(conjunct, table, alias)
        if lookup is not None and all(
            l.column_index != lookup.column_index for l in lookups
        ):
            lookups.append(lookup)
            continue
        candidate = _as_sorted_bound(conjunct, table, alias)
        if bound is not None or candidate is None or not candidate.upper:
            return None
        bound = candidate
    if not lookups:
        return None
    bound_column = None if bound is None else bound.column_index
    if exists:
        if select.order_by or select.limit is not None or not all(
            _inert_item(item.expr, table, alias) for item in select.items
        ):
            return None
        return ProbePlan("exists", tuple(lookups), bound_column, bound)
    if len(select.items) != 1 or select.distinct:
        return None
    item = select.items[0]
    if isinstance(item.expr, ast.FunctionCall):
        call = item.expr
        if (
            call.name != "MAX"
            or call.star
            or call.distinct
            or len(call.args) != 1
            or select.order_by
            or select.limit is not None
        ):
            return None
        column = _local_column(call.args[0], table, alias)
        if column is None or bound_column not in (None, column):
            return None
        return ProbePlan("max", tuple(lookups), column, bound)
    value = _local_column(item.expr, table, alias)
    if (
        value is None
        or len(select.order_by) != 1
        or not select.order_by[0].descending
        or not (isinstance(select.limit, ast.Literal) and select.limit.value == 1)
    ):
        return None
    order = select.order_by[0].expr
    column = _local_column(order, table, alias)
    if column is None or bound_column not in (None, column):
        return None
    assert isinstance(order, ast.ColumnRef)
    if order.table is None and (item.alias or "").lower() == order.column.lower():
        return None  # ORDER BY a bare output alias orders by that output
    return ProbePlan("latest", tuple(lookups), column, bound, value)


def _inert_item(expr: ast.Expr, table: Table, alias: str) -> bool:
    """A select item whose evaluation cannot raise on any row: a literal,
    a column of the table, or ``*`` / ``alias.*``."""
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.Star):
        return expr.table is None or expr.table.lower() == alias.lower()
    return _local_column(expr, table, alias) is not None


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


def collect_aliases(source: ast.TableRef) -> set[str]:
    """Alias names (lower-cased) a FROM subtree makes visible."""
    if isinstance(source, ast.NamedTable):
        return {(source.alias or source.name).lower()}
    if isinstance(source, ast.SubquerySource):
        return {source.alias.lower()}
    if isinstance(source, ast.Join):
        return collect_aliases(source.left) | collect_aliases(source.right)
    return set()


def attribute_to_leg(
    expr: ast.Expr, left_aliases: set[str], right_aliases: set[str]
) -> str | None:
    """Which join leg a conjunct can be pushed into: 'left', 'right' or
    None. Only fully-qualified references are attributed; a bare column
    name or a subquery keeps the conjunct at the join level."""
    if contains_subquery(expr):
        return None
    sides = set()
    for ref in column_refs(expr):
        if ref.table is None:
            return None
        lowered = ref.table.lower()
        if lowered in left_aliases:
            sides.add("left")
        elif lowered in right_aliases:
            sides.add("right")
        # refs to neither leg are outer correlations: constants here.
    if sides == {"left"}:
        return "left"
    if sides == {"right"}:
        return "right"
    return None


def extract_equi_pairs(
    conjuncts: list[ast.Expr],
    resolve_left,
    resolve_right,
) -> tuple[list[tuple[int, int]], list[ast.Expr]]:
    """Split join-condition conjuncts into hash-join key pairs + residual.

    ``resolve_left``/``resolve_right`` map a ColumnRef to a column index
    in the respective leg's relation, or None. A conjunct contributes a
    pair only when its two sides resolve on *opposite* legs and nowhere
    else (ambiguous references stay residual, preserving the executor's
    error behaviour).
    """
    pairs: list[tuple[int, int]] = []
    residual: list[ast.Expr] = []
    for conjunct in conjuncts:
        pair = None
        if (
            isinstance(conjunct, ast.Binary)
            and conjunct.op in _EQ_OPS
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            pair = _resolve_pair(conjunct.left, conjunct.right, resolve_left, resolve_right)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(conjunct)
    return pairs, residual


def _resolve_pair(
    a: ast.ColumnRef, b: ast.ColumnRef, resolve_left, resolve_right
) -> tuple[int, int] | None:
    a_left, a_right = resolve_left(a), resolve_right(a)
    b_left, b_right = resolve_left(b), resolve_right(b)
    if a_left is not None and a_right is None and b_right is not None and b_left is None:
        return (a_left, b_right)
    if b_left is not None and b_right is None and a_right is not None and a_left is None:
        return (b_left, a_right)
    return None
