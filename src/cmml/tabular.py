"""The one table type, and CSV ingestion/emission.

A ``Table`` is rows (lists of cells) under ``Column``s. An input column is
``Column(name, kind)``; the other fields are its lineage (G1) and flags for
the engine's steps. The engine's working tables, every emitted dataset and
``ds0`` are Tables; the manifest reads lineage from an emitted table's columns.

CSV conventions: RFC 4180 quoting, mandatory header row, UTF-8, ISO-8601
dates, booleans `true`/`false`, decimal point `.`; an empty field is a null.
The unknown/not-applicable distinction is assigned by the binder, never here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .diagnostics import Report
from .values import Null, format_cell, format_float, parse_cell


@dataclass
class Column:
    name: str                       # working name; final iff prefixed
    kind: str
    origin_entities: list[str] = field(default_factory=list)
    source_attributes: list[str] = field(default_factory=list)
    transform: str = "raw"          # raw | derived | count | ... (see engine.feature_name)
    params: dict = field(default_factory=dict)
    guidelines: list[str] = field(default_factory=list)
    prefixed: bool = False
    emit: bool = True
    consumed: bool = False          # feeds a same-entity derived attribute; dropped at emit
    subtype: Optional[tuple[str, str]] = None  # (generalization, subtype) owning the column
    imputed_cells: int = 0

    def clone(self, **changes) -> "Column":
        """A copy sharing no list or dict with this column, ``changes`` applied."""
        return replace(self, origin_entities=list(self.origin_entities),
                       source_attributes=list(self.source_attributes),
                       params=dict(self.params), guidelines=list(self.guidelines), **changes)

    def output_name(self) -> str:
        """The column's name in an output dataset (G1): a prefixed name is
        final; any other is prefixed with the column's origin entity."""
        if self.prefixed:
            return self.name
        return f"{self.origin_entities[0]}_{self.name}"


@dataclass
class Table:
    name: str
    columns: list[Column]
    rows: list[list] = field(default_factory=list)
    key_columns: list[str] = field(default_factory=list)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def keys(self) -> Iterator[tuple]:
        """Every row's key tuple, in row order."""
        idx = [self.column_index(k) for k in self.key_columns]
        return (tuple([row[i] for i in idx]) for row in self.rows)

    def order_key(self) -> Callable[[int], tuple]:
        """Sort key of a row index: the repr of the row's key. A parent's children
        are aggregated, and an emitted dataset's rows are put, in this order."""
        idx = [self.column_index(k) for k in self.key_columns]
        rows = self.rows
        return lambda i: tuple([repr(rows[i][k]) for k in idx])


@dataclass
class DataBundle:
    tables: dict[str, Table] = field(default_factory=dict)

    def table(self, name: str) -> Optional[Table]:
        return self.tables.get(name)

    def add(self, table: Table) -> None:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table


def read_csv(path: str | Path, name: str, columns: Iterable[Column],
             key_columns: Iterable[str] = ()) -> tuple[Optional[Table], Report]:
    """Read one entity table with declared column types.

    Header must contain exactly the declared columns (any order). Empty fields
    become nulls; malformed cells become diagnostics with row/column indexes.
    A file that is not UTF-8 or that the csv module cannot parse yields no
    table and one coded diagnostic naming the file (and the line).
    """
    rep = Report()
    columns = list(columns)
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        rep.error("encoding", f"{path}: not UTF-8: byte 0x{err.object[err.start]:02x} "
                              f"at offset {err.start}")
        return None, rep
    except OSError as err:
        rep.error("io", f"cannot read {path}: {err}")
        return None, rep
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            rep.error("missing-header", f"{path} is empty (header row required)")
            return None, rep
        declared = [c.name for c in columns]
        missing = [c for c in declared if c not in header]
        extra = [c for c in header if c not in declared]
        if missing:
            rep.error("missing-column", f"{path}: missing column(s) {missing}")
        if extra:
            rep.error("extra-column", f"{path}: undeclared column(s) {extra}")
        if missing or extra:
            return None, rep
        order = [header.index(c) for c in declared]
        table = Table(name, columns, key_columns=list(key_columns))
        for rownum, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                rep.error("ragged-row", f"{path}: row {rownum} has {len(raw)} fields, expected {len(header)}")
                continue
            out = []
            for col, src in zip(columns, order):
                try:
                    out.append(parse_cell(raw[src], col.kind))
                except ValueError as err:
                    rep.error("bad-cell", f"{path}: row {rownum}, column {col.name!r}: {err}",
                              f"{name}:{rownum}:{col.name}")
                    out.append(None)
            table.rows.append(out)
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        rep.error("bad-csv", f"{path}: line {reader.line_num}: {err}", f"{path}:{reader.line_num}")
        return None, rep
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
