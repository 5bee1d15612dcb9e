"""Abstract syntax tree node types for SealDB SQL.

Plain frozen dataclasses; the parser builds them, the executor walks them.
Expression nodes and statement nodes share no base class beyond ``Node``
because they are never interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Marker base class for all AST nodes."""


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr(Node):
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: int | float | str | bytes | None


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``?`` placeholder; ``index`` is its zero-based position."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expr):
    """``column`` or ``table.column``."""

    table: str | None
    column: str
    #: ``(qualifier, name)`` lower-cased: what a layout's resolution map
    #: is keyed by, computed once per node.
    key: tuple[str | None, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = self.table.lower() if self.table else None
        object.__setattr__(self, "key", (table, self.column.lower()))


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``table.*`` — only valid in select lists and COUNT(*)."""

    table: str | None = None


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-', '+', 'NOT'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # comparison, arithmetic, AND, OR, '||'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool


@dataclass(frozen=True)
class InSelect(Expr):
    operand: Expr
    select: "Select"
    negated: bool


@dataclass(frozen=True)
class ScalarSelect(Expr):
    """A parenthesised SELECT used as a scalar value."""

    select: "Select"


@dataclass(frozen=True)
class ExistsSelect(Expr):
    select: "Select"
    negated: bool


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str  # normalised upper-case
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class Case(Expr):
    operand: Expr | None
    branches: tuple[tuple[Expr, Expr], ...]  # (WHEN cond, THEN result)
    default: Expr | None


# --------------------------------------------------------------------------
# SELECT machinery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef(Node):
    """Base for FROM clause items."""


@dataclass(frozen=True)
class NamedTable(TableRef):
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class SubquerySource(TableRef):
    select: "Select"
    alias: str


@dataclass(frozen=True)
class Join(TableRef):
    left: TableRef
    right: TableRef
    kind: str  # 'INNER', 'LEFT', 'CROSS'
    natural: bool = False
    condition: Expr | None = None
    using: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Node):
    items: tuple[SelectItem, ...]
    source: TableRef | None = None
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    distinct: bool = False
    compound: tuple[tuple[str, "Select"], ...] = ()  # (op, rhs) UNION chains


# --------------------------------------------------------------------------
# Other statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef(Node):
    name: str
    type_name: str  # 'INTEGER', 'REAL', 'TEXT', 'BLOB', '' (dynamic)
    primary_key: bool = False
    unique: bool = False


@dataclass(frozen=True)
class CreateTable(Node):
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateView(Node):
    name: str
    select: Select
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropObject(Node):
    kind: str  # 'TABLE' or 'VIEW'
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert(Node):
    table: str
    columns: tuple[str, ...]  # empty means "all, in schema order"
    rows: tuple[tuple[Expr, ...], ...] = ()
    select: Select | None = None


@dataclass(frozen=True)
class Delete(Node):
    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class Update(Node):
    table: str
    assignments: tuple[tuple[str, Expr], ...] = field(default=())
    where: Expr | None = None


Statement = (
    Select | CreateTable | CreateView | DropObject | Insert | Delete | Update
)
