"""Columnar batch predicates for the SealDB executor.

Evaluating a predicate through a :class:`~repro.sealdb.executor.Scope`
costs, for every candidate row, a scope allocation, a resolution-map walk
per column reference and a tree of compiled-closure calls. For the
predicate shapes that dominate invariant checking — comparisons between
columns, constants and correlated outer references, NULL tests,
``BETWEEN``, literal ``IN`` lists, and AND combinations of those — none
of that is necessary: each operand can be resolved once per scan (a
local column index, a parameter, or one lazy outer-scope read) and the
whole batch of rows filtered through a flat list of ``row -> bool``
predicates (the STANlite-style vectorized inner loop).

Compilation is two-phase so plans cache well:

1. :func:`compile_batch` turns a conjunct list into a
   :class:`BatchPredicate` — *abstract* over the column layout (columns
   are remembered as ``(qualifier, name)`` keys). This is memoised per
   AST node by the executor, like its closure cache.
2. :meth:`BatchPredicate.bind` resolves the keys against one scan's
   concrete resolution map, the statement parameters and (for
   correlated subquery scans) the outer scope, yielding the flat
   predicate list for that scan.

A column key that does not resolve in the local layout binds as a
*correlated* operand: the outer scope is read once, on the first row
that needs it, and the value pinned for the rest of the scan — the
outer row is fixed for a scan's lifetime, so this equals a per-row
scope-chain walk, including never touching the outer scope on an empty
scan.

Either phase *declines* (returns ``None``) on anything it cannot prove
batchable — OR, LIKE, subqueries, expression-valued operands, ambiguous
columns, unresolvable references with no outer scope, out-of-range
parameters — and the executor evaluates that predicate per row through a
Scope instead (``Executor._filter``). Declining is decided by the
predicate alone; there is no setting that turns batching off. Semantics
never depend on which of the two ran: a batch predicate uses the same
three-valued logic (:func:`sql_compare` / :func:`sql_and`) as the
compiled closure, and the differential suite holds the executor's rows
to stdlib ``sqlite3`` and its ``rows_scanned`` / ``rows_vectorized`` to
golden values (``tests/sealdb/test_vectorized_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sealdb import ast
from repro.sealdb.table import SqlValue
from repro.sealdb.values import sql_and, sql_compare, sql_not, sql_truth

#: A bound per-row predicate returning SQL three-valued truth: True,
#: False or None (unknown). A row is kept iff the result is True — both
#: False and None are falsy, so ``all(pred(row) ...)`` filters
#: correctly — but exposing the NULL case lets callers that batch only a
#: *prefix* of a conjunction fall back to Scope evaluation when a prefix
#: verdict is unknown (an AND chain keeps evaluating later conjuncts on
#: NULL, and those may carry side effects such as subquery scans).
RowPredicate = Callable[[Sequence[SqlValue]], "bool | None"]

#: A bound per-row operand reader: local column, pinned constant, or a
#: lazily-resolved correlated outer value.
ValueGetter = Callable[[Sequence[SqlValue]], SqlValue]

_CMP_OPS = {
    "=": lambda c: c == 0,
    "==": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

_LIT = "lit"
_PARAM = "param"
_COL = "col"


def _operand_spec(expr: ast.Expr) -> tuple[str, object] | None:
    """An operand computable per row without a scope walk: a literal, a
    parameter, or a column reference (local or correlated)."""
    if isinstance(expr, ast.Literal):
        return (_LIT, expr.value)
    if isinstance(expr, ast.Parameter):
        return (_PARAM, expr.index)
    if isinstance(expr, ast.ColumnRef):
        return (_COL, expr.key)
    return None


def _fetch(
    spec: tuple[str, object],
    mapping: dict,
    params: tuple[SqlValue, ...],
    outer,
) -> ValueGetter | None:
    """Bind one operand spec to a per-row getter; None = fall back."""
    kind, payload = spec
    if kind == _LIT:
        value = payload
        return lambda row: value
    if kind == _PARAM:
        if not isinstance(payload, int) or payload >= len(params):
            # The row path raises its own error — or nothing at all on an
            # empty scan. Declining preserves both behaviours.
            return None
        value = params[payload]
        return lambda row: value
    index = mapping.get(payload)
    if index is not None:
        if index < 0:
            return None  # ambiguous locally: the row path owns that error
        return lambda row, index=index: row[index]
    if outer is None:
        return None  # unresolvable and nowhere to fall back to
    cell: list[SqlValue] = []

    def fetch_outer(row):
        # Correlated reference: constant for this scan (the outer row is
        # fixed), resolved on first use so empty scans never touch the
        # outer scope — exactly like the row path. A resolution failure
        # raises the same SQLExecutionError the row path would raise on
        # its first candidate row.
        if not cell:
            cell.append(outer.resolve(payload, *payload))
        return cell[0]

    return fetch_outer


class BatchPredicate:
    """An abstract batchable conjunction; bind per scan to get row preds."""

    __slots__ = ("_conjuncts",)

    def __init__(self, conjuncts: list):
        self._conjuncts = conjuncts

    def bind(
        self,
        mapping: dict,
        params: tuple[SqlValue, ...],
        outer=None,
    ) -> list[RowPredicate] | None:
        """Resolve against one scan's column map; None = fall back.

        ``mapping`` is the executor's resolution map: ``(qualifier,
        name) -> index``, with negative indices marking ambiguity.
        ``outer`` is the enclosing scope for correlated subquery scans
        (None at the top level)."""
        preds: list[RowPredicate] = []
        for conjunct in self._conjuncts:
            pred = conjunct(mapping, params, outer)
            if pred is None:
                return None
            preds.append(pred)
        return preds


def _compile_comparison(expr: ast.Binary):
    op_fn = _CMP_OPS[expr.op]
    left = _operand_spec(expr.left)
    right = _operand_spec(expr.right)
    if left is None or right is None:
        return None
    if left[0] != _COL and right[0] != _COL:
        return None  # const-vs-const: constant folding is the row path's job

    def bind_cmp(mapping, params, outer, left=left, right=right, op_fn=op_fn):
        get_left = _fetch(left, mapping, params, outer)
        get_right = _fetch(right, mapping, params, outer)
        if get_left is None or get_right is None:
            return None

        def pred(row, get_left=get_left, get_right=get_right, op_fn=op_fn):
            comparison = sql_compare(get_left(row), get_right(row))
            return None if comparison is None else op_fn(comparison)

        return pred

    return bind_cmp


def _compile_is_null(expr: ast.IsNull):
    spec = _operand_spec(expr.operand)
    if spec is None:
        return None
    negated = expr.negated

    def bind_is_null(mapping, params, outer, spec=spec, negated=negated):
        get = _fetch(spec, mapping, params, outer)
        if get is None:
            return None
        if negated:
            return lambda row, get=get: get(row) is not None
        return lambda row, get=get: get(row) is None

    return bind_is_null


def _compile_between(expr: ast.Between):
    operand = _operand_spec(expr.operand)
    low = _operand_spec(expr.low)
    high = _operand_spec(expr.high)
    if operand is None or low is None or high is None:
        return None
    negated = expr.negated

    def bind_between(
        mapping, params, outer, operand=operand, low=low, high=high, negated=negated
    ):
        get_op = _fetch(operand, mapping, params, outer)
        get_low = _fetch(low, mapping, params, outer)
        get_high = _fetch(high, mapping, params, outer)
        if get_op is None or get_low is None or get_high is None:
            return None

        def pred(row, get_op=get_op, get_low=get_low, get_high=get_high):
            value = get_op(row)
            low_cmp = sql_compare(value, get_low(row))
            high_cmp = sql_compare(value, get_high(row))
            ge_low = None if low_cmp is None else low_cmp >= 0
            le_high = None if high_cmp is None else high_cmp <= 0
            result = sql_and(ge_low, le_high)
            return sql_not(result) if negated else result

        return pred

    return bind_between


def _compile_in_list(expr: ast.InList):
    operand = _operand_spec(expr.operand)
    if operand is None:
        return None
    items = [_operand_spec(item) for item in expr.items]
    if any(item is None for item in items):
        return None
    negated = expr.negated

    def bind_in(mapping, params, outer, operand=operand, items=items, negated=negated):
        get_op = _fetch(operand, mapping, params, outer)
        if get_op is None:
            return None
        getters = []
        for item in items:
            get = _fetch(item, mapping, params, outer)
            if get is None:
                return None
            getters.append(get)

        def pred(row, get_op=get_op, getters=getters):
            operand_value = get_op(row)
            if operand_value is None:
                return None  # NULL IN (...) is unknown, never True
            found = False
            saw_null = False
            for get in getters:
                comparison = sql_compare(operand_value, get(row))
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
            return sql_not(result) if negated else result

        return pred

    return bind_in


def _compile_literal(expr: ast.Literal):
    keep = sql_truth(expr.value)

    def bind_literal(mapping, params, outer, keep=keep):
        return lambda row, keep=keep: keep

    return bind_literal


def _compile_conjunct(expr: ast.Expr):
    if isinstance(expr, ast.Binary):
        if expr.op in _CMP_OPS:
            return _compile_comparison(expr)
        if expr.op == "AND":
            # Conjunct lists are normally AND-free (split upstream), but a
            # residual handed over as one conjoined node still batches.
            left = _compile_conjunct(expr.left)
            right = _compile_conjunct(expr.right)
            if left is None or right is None:
                return None

            def bind_and(mapping, params, outer, left=left, right=right):
                left_pred = left(mapping, params, outer)
                right_pred = right(mapping, params, outer)
                if left_pred is None or right_pred is None:
                    return None

                def pred(row, left_pred=left_pred, right_pred=right_pred):
                    lhs = left_pred(row)
                    if lhs is False:
                        return False
                    return sql_and(lhs, right_pred(row))

                return pred

            return bind_and
        return None
    if isinstance(expr, ast.IsNull):
        return _compile_is_null(expr)
    if isinstance(expr, ast.Between):
        return _compile_between(expr)
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr)
    if isinstance(expr, ast.Literal):
        return _compile_literal(expr)
    return None


def compile_batch(conjuncts: Sequence[ast.Expr]) -> BatchPredicate | None:
    """Compile a conjunct list into an abstract batch predicate, or None
    when any conjunct falls outside the provably batchable subset."""
    if not conjuncts:
        return None
    compiled = []
    for conjunct in conjuncts:
        fn = _compile_conjunct(conjunct)
        if fn is None:
            return None
        compiled.append(fn)
    return BatchPredicate(compiled)
