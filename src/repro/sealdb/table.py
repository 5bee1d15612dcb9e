"""In-memory table storage for SealDB.

Rows are stored as plain lists; the schema records column names, declared
affinities and primary-key membership. Affinity coercion on insert follows
SQLite's model (INTEGER/REAL affinity parses numeric text; TEXT affinity
stringifies numbers) so that SealDB and the stdlib ``sqlite3`` cross-check
cleanly in the test suite.

Tables also carry two access-path structures consumed by the query
planner:

- *hash indexes*: lazily-built ``dict[key tuple, row positions]`` maps
  over one or more columns, maintained incrementally on insert and
  invalidated (rebuilt on next use) by deletes/updates. Python ``dict``
  key equality coincides with ``sql_compare() == 0`` for every SqlValue
  pair (ints and floats cross-hash; text never equals numbers; NULLs are
  excluded from indexes entirely), so an index lookup returns exactly
  the rows a full scan with an ``=`` predicate would keep.
- *sorted hint*: an audit log only ever appends with non-decreasing
  logical time, so a column can be marked append-sorted and range
  predicates on it become a bisect instead of a scan. The hint is
  verified when set and dropped automatically if an insert or update
  ever violates the order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.sealdb.errors import SQLExecutionError

SqlValue = int | float | str | bytes | None


@dataclass(frozen=True)
class Column:
    """A column definition: name plus declared affinity."""

    name: str
    affinity: str = ""  # 'INTEGER', 'REAL', 'TEXT', 'BLOB' or '' (none)
    primary_key: bool = False
    unique: bool = False


def apply_affinity(value: SqlValue, affinity: str) -> SqlValue:
    """Coerce ``value`` according to SQLite-style column affinity."""
    if value is None:
        return None
    if affinity == "INTEGER":
        coerced = _to_number_or_none(value)
        if coerced is None:
            return value
        if isinstance(coerced, float) and coerced.is_integer():
            return int(coerced)
        return coerced
    if affinity == "REAL":
        coerced = _to_number_or_none(value)
        if coerced is None:
            return value
        return float(coerced)
    if affinity == "TEXT":
        if isinstance(value, (int, float)):
            return _number_to_text(value)
        return value
    return value


def _to_number_or_none(value: SqlValue) -> int | float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return None
    return None


def _number_to_text(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if value.is_integer():
        return f"{value:.1f}"
    return repr(value)


@dataclass
class Table:
    """A named relation with affinity-coerced rows and optional PK check."""

    name: str
    columns: list[Column]
    rows: list[list[SqlValue]] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SQLExecutionError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)
        self._pk_indexes = [
            i for i, column in enumerate(self.columns) if column.primary_key
        ]
        self._pk_values: set[tuple[SqlValue, ...]] = set()
        # Hash indexes keyed by a tuple of column positions; values map a
        # key tuple to the (ascending) row positions holding it.
        self._indexes: dict[tuple[int, ...], dict[tuple, list[int]]] = {}
        # Column positions currently known to be append-sorted.
        self._sorted_columns: set[int] = set()

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise SQLExecutionError(f"table {self.name!r} has no column {name!r}")

    def insert_row(self, values: Sequence[SqlValue]) -> list[SqlValue]:
        """Insert one row, applying affinities and enforcing the PK;
        returns the stored (coerced) row."""
        if len(values) != len(self.columns):
            raise SQLExecutionError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        row = [
            apply_affinity(value, column.affinity)
            for value, column in zip(values, self.columns)
        ]
        if self._pk_indexes:
            key = tuple(row[i] for i in self._pk_indexes)
            if key in self._pk_values:
                raise SQLExecutionError(
                    f"PRIMARY KEY violation in table {self.name!r}: {key!r}"
                )
            self._pk_values.add(key)
        position = len(self.rows)
        self.rows.append(row)
        for cols, index in self._indexes.items():
            key = tuple(row[i] for i in cols)
            if None not in key:
                index.setdefault(key, []).append(position)
        if self._sorted_columns:
            for col in list(self._sorted_columns):
                value = row[col]
                if not _sortable(value) or (
                    position > 0 and self.rows[position - 1][col] > value  # type: ignore[operator]
                ):
                    self._sorted_columns.discard(col)
        return row

    def delete_rows(self, keep_mask: list[bool]) -> int:
        """Keep rows where mask is True; returns number deleted."""
        if len(keep_mask) != len(self.rows):
            raise SQLExecutionError("internal: keep mask length mismatch")
        deleted = sum(1 for keep in keep_mask if not keep)
        self.rows = [row for row, keep in zip(self.rows, keep_mask) if keep]
        self._rebuild_pk()
        # Positions shifted: drop all indexes, rebuilt lazily on next use.
        # Deleting a subset preserves any append-sorted order.
        self._indexes.clear()
        return deleted

    def update_row(self, index: int, new_values: dict[int, SqlValue]) -> None:
        row = self.rows[index]
        for col_index, value in new_values.items():
            row[col_index] = apply_affinity(value, self.columns[col_index].affinity)
        self._rebuild_pk()
        touched = set(new_values)
        # Row positions are unchanged, so only indexes covering a written
        # column go stale; sorted hints on written columns are dropped.
        for cols in [c for c in self._indexes if touched.intersection(c)]:
            del self._indexes[cols]
        self._sorted_columns -= touched

    def _rebuild_pk(self) -> None:
        if not self._pk_indexes:
            return
        self._pk_values = set()
        for row in self.rows:
            key = tuple(row[i] for i in self._pk_indexes)
            if key in self._pk_values:
                raise SQLExecutionError(
                    f"PRIMARY KEY violation in table {self.name!r}: {key!r}"
                )
            self._pk_values.add(key)

    # ------------------------------------------------------------------
    # Planner access paths
    # ------------------------------------------------------------------

    def ensure_index(self, cols: tuple[int, ...]) -> dict[tuple, list[int]]:
        """Return (building if needed) the hash index over ``cols``.

        Rows with a NULL in any indexed column are omitted: SQL ``=``
        never matches NULL, so they can never satisfy an equality lookup.
        """
        index = self._indexes.get(cols)
        if index is None:
            index = {}
            for position, row in enumerate(self.rows):
                key = tuple(row[i] for i in cols)
                if None not in key:
                    index.setdefault(key, []).append(position)
            self._indexes[cols] = index
        return index

    def lookup(self, cols: tuple[int, ...], key: tuple) -> list[int]:
        """Row positions whose ``cols`` equal ``key`` (ascending order)."""
        if None in key:
            return []
        return self.ensure_index(cols).get(key, [])

    def mark_sorted(self, col_index: int) -> bool:
        """Declare ``col_index`` append-sorted; verified before accepting."""
        values = [row[col_index] for row in self.rows]
        if any(not _sortable(v) for v in values):
            return False
        if any(a > b for a, b in zip(values, values[1:])):  # type: ignore[operator]
            return False
        self._sorted_columns.add(col_index)
        return True

    def is_sorted(self, col_index: int) -> bool:
        return col_index in self._sorted_columns

    def sorted_cut(
        self, col_index: int, positions: Sequence[int], bound: SqlValue, right: bool
    ) -> int | None:
        """Bisect ``positions`` (ascending row positions) on ``col_index``:
        the index of the first row whose value is ``> bound`` (``right``)
        or ``>= bound``. None when the column carries no sorted hint or
        ``bound`` is not a real number: then nothing orders the rows
        against it and the caller must compare row by row."""
        if col_index not in self._sorted_columns or not _sortable(bound):
            return None
        rows = self.rows
        bisect = bisect_right if right else bisect_left
        return bisect(positions, bound, key=lambda p: rows[p][col_index])

    def approximate_size_bytes(self) -> int:
        """Rough on-disk footprint used by log-size accounting (§6.5)."""
        total = 0
        for row in self.rows:
            for value in row:
                if value is None:
                    total += 1
                elif isinstance(value, int):
                    total += 8
                elif isinstance(value, float):
                    total += 8
                elif isinstance(value, bytes):
                    total += len(value)
                else:
                    total += len(str(value).encode())
        return total


def _sortable(value: SqlValue) -> bool:
    """Values the sorted hint supports: real numbers only (one rank, so
    Python ``<`` agrees with ``sql_compare``; NULL and NaN sort nowhere)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value == value
    )
