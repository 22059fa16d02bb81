"""Typed in-memory tables and CSV ingestion/emission.

Conventions: RFC 4180 quoting, mandatory header row, UTF-8, ISO-8601 dates,
booleans `true`/`false`, decimal point `.`; an empty field is a null. The
unknown/not-applicable distinction is assigned by the binder, never here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .diagnostics import Report
from .values import Null, format_cell, format_float, parse_cell


@dataclass
class Table:
    name: str
    columns: list[tuple[str, str]]  # (name, kind)
    rows: list[list] = field(default_factory=list)
    key_columns: list[str] = field(default_factory=list)

    @property
    def column_names(self) -> list[str]:
        return [c[0] for c in self.columns]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def keys(self) -> Iterator[tuple]:
        """Every row's key tuple, in row order."""
        idx = [self.column_index(k) for k in self.key_columns]
        return (tuple([row[i] for i in idx]) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.name == other.name
            and self.columns == other.columns
            and self.rows == other.rows
        )


@dataclass
class DataBundle:
    tables: dict[str, Table] = field(default_factory=dict)

    def table(self, name: str) -> Optional[Table]:
        return self.tables.get(name)

    def add(self, table: Table) -> None:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table


def read_csv(path: str | Path, name: str, columns: Iterable[tuple[str, str]],
             key_columns: Iterable[str] = ()) -> tuple[Optional[Table], Report]:
    """Read one entity table with declared column types.

    Header must contain exactly the declared columns (any order). Empty fields
    become nulls; malformed cells become diagnostics with row/column indexes.
    """
    rep = Report()
    columns = list(columns)
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        rep.error("io", f"cannot read {path}: {err}")
        return None, rep
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        rep.error("missing-header", f"{path} is empty (header row required)")
        return None, rep
    declared = [c[0] for c in columns]
    missing = [c for c in declared if c not in header]
    extra = [c for c in header if c not in declared]
    if missing:
        rep.error("missing-column", f"{path}: missing column(s) {missing}")
    if extra:
        rep.error("extra-column", f"{path}: undeclared column(s) {extra}")
    if missing or extra:
        return None, rep
    kind_of = dict(columns)
    order = [header.index(c) for c in declared]
    table = Table(name, columns, key_columns=list(key_columns))
    for rownum, raw in enumerate(reader, start=1):
        if len(raw) != len(header):
            rep.error("ragged-row", f"{path}: row {rownum} has {len(raw)} fields, expected {len(header)}")
            continue
        out = []
        for colname, src in zip(declared, order):
            try:
                out.append(parse_cell(raw[src], kind_of[colname]))
            except ValueError as err:
                rep.error("bad-cell", f"{path}: row {rownum}, column {colname!r}: {err}",
                          f"{name}:{rownum}:{colname}")
                out.append(None)
        table.rows.append(out)
    return table, rep


# Exact cell types that csv.writer already writes as format_cell would: it
# applies str() (a date's str() is its ISO form) and writes None as empty.
_CSV_NATIVE = frozenset({str, int, type(None), _dt.date})


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _null_text(v: Null) -> str:
    return ""


_FORMAT_BY_TYPE = {float: format_float, bool: _bool_text, Null: _null_text}


def table_to_csv_bytes(table: Table) -> bytes:
    """Serialize with format_cell's text for every cell. Cells are dispatched
    on their exact type; any other type (a datetime, a subclass) goes through
    format_cell itself."""
    fmt = _FORMAT_BY_TYPE.get
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.column_names)
    writer.writerows([v if type(v) in _CSV_NATIVE else (fmt(type(v)) or format_cell)(v) for v in row]
                     for row in table.rows)
    return buf.getvalue().encode("utf-8")


def write_csv(table: Table, path: str | Path) -> None:
    Path(path).write_bytes(table_to_csv_bytes(table))


def distinct_key_count(table: Table) -> int:
    if not table.key_columns:
        raise ValueError(f"table {table.name!r} has no key columns set")
    return len(set(table.keys()))
