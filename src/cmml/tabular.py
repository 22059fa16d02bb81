"""The one table type, and CSV ingestion/emission.

A ``Table`` is rows under ``Column``s. An input column is
``Column(name, kind)``; the other fields are its lineage (G1) and flags for
the engine's steps. The engine's working tables, every emitted dataset and
``ds0`` are Tables; the manifest reads lineage from an emitted table's columns.
Rows are lists of cells, except in ``ds0``, whose rows are a read-only
``JoinRows`` view of a factorized join: each joined entity's cells once, and
per output row one row index into each entity's block.

CSV conventions: RFC 4180 quoting, mandatory header row, UTF-8, ISO-8601
dates, booleans `true`/`false`, decimal point `.`; an empty field is a null.
The unknown/not-applicable distinction is assigned by the binder, never here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .diagnostics import Report
from .values import Null, format_cell, format_float, parse_cell

if TYPE_CHECKING:
    import numpy as np


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


class JoinRows(Sequence):
    """The rows of a factorized join, read-only. ``blocks[b]`` holds one
    entity's projected cell tuples, all of one width; ``index[b]`` is an
    integer numpy array whose entry ``r`` is the block row that output row
    ``r`` takes from block ``b``. An output row is its block rows' cells
    concatenated in block order."""

    def __init__(self, blocks: list[list[tuple]], index: list[np.ndarray]):
        self.blocks = blocks
        self.index = index
        self.widths = [len(block[0]) if block else 0 for block in blocks]

    def __len__(self) -> int:
        return len(self.index[0])

    def __getitem__(self, r: int) -> list:
        return [v for block, idx in zip(self.blocks, self.index) for v in block[idx[r]]]

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass
class Table:
    name: str
    columns: list[Column]
    rows: Union[list[list], JoinRows] = field(default_factory=list)
    key_columns: list[str] = field(default_factory=list)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def column_cells(self, j: int) -> tuple[list, Optional[np.ndarray]]:
        """Column ``j`` as ``(cells, index)``: row ``r`` holds ``cells[index[r]]``,
        or ``cells[r]`` when ``index`` is None. A join view's column is read
        from its block, so each entity cell is handled once."""
        rows = self.rows
        if not isinstance(rows, JoinRows):
            return [row[j] for row in rows], None
        for block, idx, width in zip(rows.blocks, rows.index, rows.widths):
            if j < width:
                return [cells[j] for cells in block], idx
            j -= width
        raise IndexError("column index out of range")

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


class _Lines:
    """A csv.writer target keeping each row's line: the writer makes one
    ``write`` call per row."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


def _csv_lines(rows: Iterable[Sequence]) -> list[str]:
    """Each row as one CSV line, terminator included, with format_cell's text
    for every cell. Cells are dispatched on their exact type; any other type
    (a datetime, a subclass) goes through format_cell itself."""
    fmt = _FORMAT_BY_TYPE.get
    lines: list[str] = []
    csv.writer(_Lines(lines), lineterminator="\n").writerows(
        [v if type(v) in _CSV_NATIVE else (fmt(type(v)) or format_cell)(v) for v in row]
        for row in rows)
    return lines


_CHUNK_ROWS = 4096  # output rows joined and encoded at a time


def table_to_csv_bytes(table: Table) -> bytes:
    """Serialize with format_cell's text for every cell. Each block row of a
    join view is formatted and quoted once, and its fragment is repeated
    along the index; a list of rows is the one-block case, formatted as it is
    written. Rows are joined and encoded a chunk at a time, so the whole text
    is never held beside its bytes."""
    rows = table.rows
    if isinstance(rows, JoinRows):
        blocks = [(block, idx, width)
                  for block, idx, width in zip(rows.blocks, rows.index, rows.widths) if width]
    else:
        blocks = [(rows, None, len(table.columns))]
    last = len(blocks) - 1

    def fragments(b: int, block_rows: Sequence[Sequence], width: int) -> list[str]:
        lines = _csv_lines(block_rows)
        if width == 1 and len(table.columns) > 1:
            # csv quotes a row's lone empty field; inside a wider row it is bare
            lines = ["\n" if line == '""\n' else line for line in lines]
        return [line[:-1] + "," for line in lines] if b < last else lines

    formatted = [None if idx is None else fragments(b, block, width)
                 for b, (block, idx, width) in enumerate(blocks)]
    out = io.BytesIO()
    out.write(_csv_lines([table.column_names])[0].encode("utf-8"))
    for start in range(0, len(rows), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        picked = [fragments(b, block[start:stop], width) if lines is None
                  else list(map(lines.__getitem__, idx[start:stop].tolist()))
                  for b, ((block, idx, width), lines) in enumerate(zip(blocks, formatted))]
        body = picked[0]
        if len(picked) > 1:
            body = [None] * sum(map(len, picked))
            for b, fragment in enumerate(picked):
                body[b::len(picked)] = fragment
        out.write("".join(body).encode("utf-8"))
    return out.getvalue()


def write_csv(table: Table, path: str | Path) -> None:
    Path(path).write_bytes(table_to_csv_bytes(table))


def distinct_key_count(table: Table) -> int:
    if not table.key_columns:
        raise ValueError(f"table {table.name!r} has no key columns set")
    return len(set(table.keys()))
