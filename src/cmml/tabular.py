"""The one table type, and CSV ingestion/emission.

A ``Table`` is cells under ``Column``s, stored one list per column from
``read_csv`` to the CSV writer: ``table.cells[j]`` holds column ``j``'s cell
of every row. An input column is ``Column(name, kind)``; the other fields are
its lineage (G1) and flags for the engine's steps. The engine's working
tables, every emitted dataset and ``ds0`` are Tables; the manifest reads
lineage from an emitted table's columns. ``ds0`` holds a ``JoinRows``
instead of cells: a factorized join, each joined entity's columns once and
per output row one row index into each entity's block. ``Table.rows`` is a
read-only row view of either storage; nothing in the pipeline reads it.

CSV conventions: RFC 4180 quoting, mandatory header row, UTF-8, ISO-8601
dates, booleans `true`/`false`, decimal point `.`; an empty field is a null.
The unknown/not-applicable distinction is assigned by the binder, never here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import io
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .diagnostics import Report
from .values import Null, format_cell, format_float, parse_column

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


class Rows(Sequence):
    """A column-major table's rows, read-only: each row is read as a new list.
    ``append`` and ``extend`` add rows, one cell to each column."""

    def __init__(self, cells: list[list]):
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells[0]) if self._cells else 0

    def __getitem__(self, r: int) -> list:
        return [column[r] for column in self._cells]

    def __iter__(self) -> Iterator[list]:
        return map(list, zip(*self._cells))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def append(self, row: Sequence) -> None:
        if len(row) != len(self._cells):
            raise ValueError(f"row has {len(row)} cells, expected {len(self._cells)}")
        for column, v in zip(self._cells, row):
            column.append(v)

    def extend(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.append(row)


class JoinRows(Sequence):
    """The rows of a factorized join, read-only. ``blocks[b]`` holds one
    entity's projected columns, each a list of that entity's cells;
    ``index[b]`` is an integer numpy array whose entry ``r`` is the block row
    that output row ``r`` takes from block ``b``. An output row is its block
    rows' cells concatenated in block order."""

    def __init__(self, blocks: list[list[list]], index: list[np.ndarray]):
        self.blocks = blocks
        self.index = index
        self.widths = [len(block) for block in blocks]

    def __len__(self) -> int:
        return len(self.index[0])

    def __getitem__(self, r: int) -> list:
        row = []
        for block, idx in zip(self.blocks, self.index):
            i = idx[r]
            row += [column[i] for column in block]
        return row

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


class Table:
    """Cells under ``Column``s, stored one list per column: ``cells[j]`` holds
    column ``j``'s cell of every row. ``ds0``'s table instead holds a
    ``JoinRows`` in ``join`` and no ``cells``. ``rows`` is a read-only row
    view of either, for callers that want rows; a table can still be built
    from rows (``rows=`` or ``rows.append``). ``source_sha256`` is the SHA-256
    of the file bytes ``read_csv`` parsed the table from, None for a table
    built in memory."""

    def __init__(self, name: str, columns: list[Column], rows: Iterable[Sequence] = (),
                 key_columns: Iterable[str] = (), *, cells: Optional[list[list]] = None,
                 source_sha256: Optional[str] = None):
        self.name = name
        self.columns = columns
        self.key_columns = list(key_columns)
        self.source_sha256 = source_sha256
        self.join = rows if isinstance(rows, JoinRows) else None
        if cells is None and self.join is None:
            cells = [[] for _ in columns]
            Rows(cells).extend(rows)
        self.cells = cells

    @property
    def rows(self) -> Union[Rows, JoinRows]:
        return self.join if self.join is not None else Rows(self.cells)

    @property
    def row_count(self) -> int:
        if self.join is not None:
            return len(self.join)
        return len(self.cells[0]) if self.cells else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def column_cells(self, j: int) -> tuple[list, Optional[np.ndarray]]:
        """Column ``j`` as ``(cells, index)``: row ``r`` holds ``cells[index[r]]``,
        or ``cells[r]`` when ``index`` is None. A join view's column is read
        from its block, so each entity cell is handled once. Do not mutate
        the list."""
        if self.join is None:
            return self.cells[j], None
        for block, idx in zip(self.join.blocks, self.join.index):
            if j < len(block):
                return block[j], idx
            j -= len(block)
        raise IndexError("column index out of range")

    def keys(self) -> Iterator[tuple]:
        """Every row's key tuple, in row order."""
        return zip(*[self.cells[self.column_index(k)] for k in self.key_columns])

    def order_key(self) -> Callable[[int], object]:
        """Sort key of a row index: the repr of the row's key. A parent's children
        are aggregated, and an emitted dataset's rows are put, in this order."""
        printed = [list(map(repr, self.cells[self.column_index(k)])) for k in self.key_columns]
        if len(printed) == 1:
            return printed[0].__getitem__
        return lambda i: tuple([p[i] for p in printed])


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

    Header must contain exactly the declared columns (any order), each once.
    Empty fields become nulls; malformed cells become diagnostics with
    row/column indexes, in row-major order. The rows are transposed once and
    each column is parsed by its kind (``values.parse_column``). A file that
    is not UTF-8 or that the csv module cannot parse yields no table and one
    coded diagnostic naming the file (and the line). The file is read once;
    the table's ``source_sha256`` is the digest of exactly those bytes, and
    its text has universal newlines, as ``Path.read_text`` would give it.
    """
    rep = Report()
    columns = list(columns)
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        rep.error("encoding", f"{path}: not UTF-8: byte 0x{err.object[err.start]:02x} "
                              f"at offset {err.start}")
        return None, rep
    except OSError as err:
        rep.error("io", f"cannot read {path}: {err}")
        return None, rep
    digest = hashlib.sha256(data).hexdigest()
    del data  # not held beside the reader's own copy of the text
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        header = next(reader, None)
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        rep.error("bad-csv", f"{path}: line {reader.line_num}: {err}", f"{path}:{reader.line_num}")
        return None, rep
    if header is None:
        rep.error("missing-header", f"{path} is empty (header row required)")
        return None, rep
    declared = [c.name for c in columns]
    duplicated = sorted({c for c in header if header.count(c) > 1})
    missing = [c for c in declared if c not in header]
    extra = [c for c in header if c not in declared]
    if duplicated:
        rep.error("duplicate-column", f"{path}: duplicated column(s) {duplicated}")
    if missing:
        rep.error("missing-column", f"{path}: missing column(s) {missing}")
    if extra:
        rep.error("extra-column", f"{path}: undeclared column(s) {extra}")
    if duplicated or missing or extra:
        return None, rep

    raws: list[list[str]] = []
    failure = None
    try:
        raws.extend(reader)  # keeps the rows read before a failure
    except csv.Error as err:
        failure = err
    # (row number, declared column position, code, message, location); a
    # ragged row is skipped whole, so -1 puts it first among its row's problems
    problems: list[tuple[int, int, str, str, Optional[str]]] = []
    rownums = range(1, len(raws) + 1)
    if set(map(len, raws)) - {len(header)}:
        rownums = [n for n, raw in enumerate(raws, start=1) if len(raw) == len(header)]
        problems = [(n, -1, "ragged-row", f"{path}: row {n} has {len(raw)} fields, "
                     f"expected {len(header)}", None)
                    for n, raw in enumerate(raws, start=1) if len(raw) != len(header)]
        raws = [raws[n - 1] for n in rownums]
    fields = list(zip(*raws)) if raws else [()] * len(header)
    cells = []
    for pos, col in enumerate(columns):
        column, bad = parse_column(fields[header.index(col.name)], col.kind)
        cells.append(column)
        for i, err in bad:
            problems.append((rownums[i], pos, "bad-cell",
                             f"{path}: row {rownums[i]}, column {col.name!r}: {err}",
                             f"{name}:{rownums[i]}:{col.name}"))
    problems.sort(key=lambda p: p[:2])
    for _, _, code, message, location in problems:
        rep.error(code, message, location)
    if failure is not None:
        rep.error("bad-csv", f"{path}: line {reader.line_num}: {failure}",
                  f"{path}:{reader.line_num}")
        return None, rep
    return Table(name, columns, key_columns=key_columns, cells=cells,
                 source_sha256=digest), rep


# Exact cell types that csv.writer already writes as format_cell would: it
# applies str() (a date's str() is its ISO form) and writes None as empty.
_CSV_NATIVE = frozenset({str, int, type(None), _dt.date})
_FLOAT = frozenset({float})


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _null_text(v: Null) -> str:
    return ""


_FORMAT_BY_TYPE = {bool: _bool_text, Null: _null_text}


def _column_text(cells: Sequence) -> Sequence:
    """Each cell as csv.writer should get it for format_cell's text. Cells are
    dispatched on their exact type, so ``True`` beside ``1.0`` stays
    ``true``; each distinct float is formatted once. A cell csv.writer
    already writes right is passed as it is; any type without a formatter
    here (a datetime, a subclass) goes through format_cell itself."""
    types = set(map(type, cells))
    if types <= _CSV_NATIVE:
        return cells
    # -0.0 and 0.0 share a key, and both print as 0
    if types == _FLOAT:
        distinct = set(cells)
        if len(distinct) == len(cells):  # nothing to share: a memo would only cost
            return list(map(format_float, cells))
        floats = {v: format_float(v) for v in distinct}
        return list(map(floats.__getitem__, cells))
    floats = {v: format_float(v) for v in {v for v in cells if type(v) is float}}
    other = {t: _FORMAT_BY_TYPE.get(t, format_cell) for t in types - _CSV_NATIVE - _FLOAT}
    return [floats[v] if (t := type(v)) is float else v if t in _CSV_NATIVE else other[t](v)
            for v in cells]


class _Lines:
    """A csv.writer target keeping each row's line: the writer makes one
    ``write`` call per row."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


def _csv_lines(columns: Sequence[Sequence]) -> list[str]:
    """Each row of the columns as one CSV line, terminator included, with
    format_cell's text for every cell."""
    lines: list[str] = []
    csv.writer(_Lines(lines), lineterminator="\n").writerows(zip(*map(_column_text, columns)))
    return lines


_CHUNK_ROWS = 4096  # output rows formatted, joined and encoded at a time


def table_to_csv_bytes(table: Table) -> bytes:
    """Serialize with format_cell's text for every cell, formatting one column
    at a time. Each block row of a join view is formatted and quoted once,
    and its fragment is repeated along the index; a column-major table is
    the one-block case, formatted as it is written. Rows are formatted,
    joined and encoded a chunk at a time, so the whole text is never held
    beside its bytes."""
    if table.join is not None:
        blocks = [(block, idx, width) for block, idx, width
                  in zip(table.join.blocks, table.join.index, table.join.widths) if width]
    else:
        blocks = [(table.cells, None, len(table.columns))]
    last = len(blocks) - 1

    def fragments(b: int, columns: list[Sequence], width: int) -> list[str]:
        lines = _csv_lines(columns)
        if width == 1 and len(table.columns) > 1:
            # csv quotes a row's lone empty field; inside a wider row it is bare
            lines = ["\n" if line == '""\n' else line for line in lines]
        return [line[:-1] + "," for line in lines] if b < last else lines

    formatted = [None if idx is None else fragments(b, block, width)
                 for b, (block, idx, width) in enumerate(blocks)]
    out = io.BytesIO()
    out.write("".join(_csv_lines([[name] for name in table.column_names])).encode("utf-8"))
    for start in range(0, table.row_count, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        picked = [fragments(b, [column[start:stop] for column in block], width) if lines is None
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
