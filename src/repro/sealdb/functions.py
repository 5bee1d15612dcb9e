"""Scalar and aggregate SQL functions for SealDB.

Scalar functions receive already-evaluated argument values; aggregates
receive the list of per-row argument values for the current group (NULLs
included — each aggregate applies its own NULL rules).
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Callable, Sequence

from repro.sealdb.errors import SQLExecutionError
from repro.sealdb.table import SqlValue
from repro.sealdb.values import sql_compare, to_number

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"})


def is_aggregate(name: str, arg_count: int) -> bool:
    """MIN/MAX with 2+ args are scalar functions (SQLite rule)."""
    if name in ("MIN", "MAX") and arg_count >= 2:
        return False
    return name in AGGREGATE_NAMES


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------


def evaluate_aggregate(
    name: str, values: Sequence[SqlValue], distinct: bool, star: bool
) -> SqlValue:
    """Compute aggregate ``name`` over per-row ``values`` of one group."""
    if name == "COUNT":
        if star:
            return len(values)
        non_null = [v for v in values if v is not None]
        if distinct:
            return len(_distinct(non_null))
        return len(non_null)
    non_null = [v for v in values if v is not None]
    if distinct:
        non_null = _distinct(non_null)
    if name == "SUM":
        if not non_null:
            return None
        return _numeric_sum(non_null)
    if name == "TOTAL":
        return float(_numeric_sum(non_null)) if non_null else 0.0
    if name == "AVG":
        if not non_null:
            return None
        return float(_numeric_sum(non_null)) / len(non_null)
    if name == "MIN":
        return _extreme(non_null, want_max=False)
    if name == "MAX":
        return _extreme(non_null, want_max=True)
    if name == "GROUP_CONCAT":
        if not non_null:
            return None
        return ",".join(str(v) for v in non_null)
    raise SQLExecutionError(f"unknown aggregate function {name!r}")


def _distinct(values: Sequence[SqlValue]) -> list[SqlValue]:
    seen: set[SqlValue] = set()
    result: list[SqlValue] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            result.append(value)
    return result


def _numeric_sum(values: Sequence[SqlValue]) -> int | float:
    total: int | float = 0
    for value in values:
        total += to_number(value)
    return total


def _extreme(values: Sequence[SqlValue], want_max: bool) -> SqlValue:
    if not values:
        return None
    best = values[0]
    for value in values[1:]:
        comparison = sql_compare(value, best)
        if comparison is None:
            continue
        if (comparison > 0) == want_max and comparison != 0:
            best = value
    return best


# --------------------------------------------------------------------------
# Scalar functions
# --------------------------------------------------------------------------


def _scalar_abs(args: list[SqlValue]) -> SqlValue:
    if args[0] is None:
        return None
    return abs(to_number(args[0]))


def _scalar_length(args: list[SqlValue]) -> SqlValue:
    value = args[0]
    if value is None:
        return None
    if isinstance(value, bytes):
        return len(value)
    return len(str(value))


def _scalar_lower(args: list[SqlValue]) -> SqlValue:
    return None if args[0] is None else str(args[0]).lower()


def _scalar_upper(args: list[SqlValue]) -> SqlValue:
    return None if args[0] is None else str(args[0]).upper()


def _scalar_substr(args: list[SqlValue]) -> SqlValue:
    if args[0] is None:
        return None
    text = str(args[0])
    start = int(to_number(args[1]))
    length = int(to_number(args[2])) if len(args) > 2 else None
    # SQL substr is 1-based; 0/negative starts follow SQLite quirks loosely.
    if start > 0:
        begin = start - 1
    elif start == 0:
        begin = 0
    else:
        begin = max(0, len(text) + start)
    if length is None:
        return text[begin:]
    return text[begin : begin + max(0, length)]


def _scalar_coalesce(args: list[SqlValue]) -> SqlValue:
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_ifnull(args: list[SqlValue]) -> SqlValue:
    return args[0] if args[0] is not None else args[1]


def _scalar_nullif(args: list[SqlValue]) -> SqlValue:
    return None if sql_compare(args[0], args[1]) == 0 else args[0]


_ROUND_CONTEXT = Context(prec=64)


def _scalar_round(args: list[SqlValue]) -> SqlValue:
    """SQLite's ROUND: halves go away from zero (Python's ``round`` sends
    them to the even neighbour), decided on the digits the value prints
    with; the digit count is clamped to 0..30 and a NULL in either
    argument is NULL."""
    if None in args:
        return None
    digits = min(max(int(to_number(args[1])), 0), 30) if len(args) > 1 else 0
    value = float(to_number(args[0]))
    if not abs(value) < 2.0**52:
        return value  # no fractional part left to round (also inf/nan)
    rounded = Decimal(repr(value)).quantize(
        Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP, context=_ROUND_CONTEXT
    )
    return float(rounded)


def _scalar_min(args: list[SqlValue]) -> SqlValue:
    if any(a is None for a in args):
        return None
    return _extreme(args, want_max=False)


def _scalar_max(args: list[SqlValue]) -> SqlValue:
    if any(a is None for a in args):
        return None
    return _extreme(args, want_max=True)


def _scalar_typeof(args: list[SqlValue]) -> SqlValue:
    value = args[0]
    if value is None:
        return "null"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    return "blob"


def _scalar_hex(args: list[SqlValue]) -> SqlValue:
    value = args[0]
    if value is None:
        return ""
    if isinstance(value, bytes):
        return value.hex().upper()
    return str(value).encode().hex().upper()


def _scalar_instr(args: list[SqlValue]) -> SqlValue:
    if args[0] is None or args[1] is None:
        return None
    return str(args[0]).find(str(args[1])) + 1


def _scalar_replace(args: list[SqlValue]) -> SqlValue:
    if any(a is None for a in args[:3]):
        return None
    return str(args[0]).replace(str(args[1]), str(args[2]))


def _scalar_trim(args: list[SqlValue]) -> SqlValue:
    if args[0] is None:
        return None
    chars = str(args[1]) if len(args) > 1 and args[1] is not None else None
    return str(args[0]).strip(chars)


_SCALARS: dict[str, tuple[Callable[[list[SqlValue]], SqlValue], int, int]] = {
    # name: (implementation, min_args, max_args); -1 = unbounded
    "ABS": (_scalar_abs, 1, 1),
    "LENGTH": (_scalar_length, 1, 1),
    "LOWER": (_scalar_lower, 1, 1),
    "UPPER": (_scalar_upper, 1, 1),
    "SUBSTR": (_scalar_substr, 2, 3),
    "COALESCE": (_scalar_coalesce, 2, -1),
    "IFNULL": (_scalar_ifnull, 2, 2),
    "NULLIF": (_scalar_nullif, 2, 2),
    "ROUND": (_scalar_round, 1, 2),
    "MIN": (_scalar_min, 2, -1),
    "MAX": (_scalar_max, 2, -1),
    "TYPEOF": (_scalar_typeof, 1, 1),
    "HEX": (_scalar_hex, 1, 1),
    "INSTR": (_scalar_instr, 2, 2),
    "REPLACE": (_scalar_replace, 3, 3),
    "TRIM": (_scalar_trim, 1, 2),
}


def evaluate_scalar(name: str, args: list[SqlValue]) -> SqlValue:
    """Dispatch a scalar function call."""
    entry = _SCALARS.get(name)
    if entry is None:
        raise SQLExecutionError(f"unknown function {name!r}")
    impl, min_args, max_args = entry
    if len(args) < min_args or (max_args != -1 and len(args) > max_args):
        raise SQLExecutionError(f"wrong number of arguments to {name}()")
    return impl(args)
