"""The one table type, and CSV ingestion/emission.

A ``Table`` is cells under ``Column``s, stored one ``values.Vec`` per column
from ``read_csv`` to the CSV writer: ``table.cells[j]`` holds column ``j``'s
typed values and null codes (0 a value, 1 unknown, 2 not applicable) for
every row, the validity-buffer layout of the Arrow columnar format. An input
column is ``Column(name, kind)``; the other fields are
its lineage (G1) and flags for the engine's steps. The engine's working
tables, every emitted dataset and ``ds0`` are Tables; the manifest reads
lineage from an emitted table's columns. ``ds0`` holds a ``JoinRows``
instead of cells: a factorized join, each joined entity's columns once and
per output row one row index into each entity's block. ``Table.rows`` is a
read-only row view of either storage that boxes each cell (``values.box``);
nothing in the pipeline reads it. The writer formats a column at a time by
its kind: ``format_float``'s text for numbers, the ISO form of each distinct
day, and an empty field for a null of either code.

``read_csv`` goes from the file's text to columns a chunk of lines at a
time, never through a list of every row: a quote-free text is split with
``str.split``, and any other text is read by ``csv.reader``.

CSV conventions: RFC 4180 quoting, mandatory header row, UTF-8, ISO-8601
dates, booleans `true`/`false`, decimal point `.`; an empty field is a null,
read as unknown (code 1). The binder rewrites the codes of the nulls that
are not applicable (code 2), never here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import io
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .diagnostics import Report
from .values import NO_TAGS, Vec, box, pack, parse_column, reprs


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
    entity's projected columns, each a ``Vec`` of that entity's rows;
    ``index[b]`` is an integer numpy array whose entry ``r`` is the block row
    that output row ``r`` takes from block ``b``. An output row is its block
    rows' boxed cells (``values.box``) concatenated in block order; a plain
    table's rows are the one-block case."""

    def __init__(self, blocks: list[list[Vec]], index: list[np.ndarray]):
        self.blocks = blocks
        self.index = index
        self.widths = [len(block) for block in blocks]

    def __len__(self) -> int:
        return len(self.index[0])

    def __getitem__(self, r: int) -> list:
        return [box(column.take([idx[r]]))[0]
                for block, idx in zip(self.blocks, self.index) for column in block]

    def __iter__(self) -> Iterator[list]:
        columns = [list(map(box(column).__getitem__, idx.tolist()))
                   for block, idx in zip(self.blocks, self.index) for column in block]
        return map(list, zip(*columns)) if columns else ([] for _ in range(len(self)))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


class Table:
    """Cells under ``Column``s, stored one ``Vec`` per column: ``cells[j]``
    holds column ``j``'s values and null codes for every row. ``ds0``'s
    table instead holds a ``JoinRows`` in ``join`` and no ``cells``. ``rows``
    is a read-only row view of either, boxing each cell; a table can still
    be built from rows of boxed cells (``rows=``, None for a null).
    ``source_sha256`` is the SHA-256 of the file bytes ``read_csv`` parsed
    the table from, None for a table built in memory."""

    def __init__(self, name: str, columns: list[Column], rows: Iterable[Sequence] = (),
                 key_columns: Iterable[str] = (), *, cells: Optional[list[Vec]] = None,
                 source_sha256: Optional[str] = None):
        self.name = name
        self.columns = columns
        self.key_columns = list(key_columns)
        self.source_sha256 = source_sha256
        self.join = rows if isinstance(rows, JoinRows) else None
        if cells is None and self.join is None:
            rows = [list(row) for row in rows]
            for row in rows:
                if len(row) != len(columns):
                    raise ValueError(f"row has {len(row)} cells, expected {len(columns)}")
            cells = [pack([row[j] for row in rows], c.kind) for j, c in enumerate(columns)]
        self.cells = cells

    @property
    def rows(self) -> JoinRows:
        return self.join if self.join is not None else JoinRows([self.cells],
                                                                [np.arange(self.row_count)])

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

    def column_cells(self, j: int) -> tuple[Vec, Optional[np.ndarray]]:
        """Column ``j`` as ``(vec, index)``: row ``r`` holds row ``index[r]``
        of ``vec``, or row ``r`` when ``index`` is None. A join view's column
        is read from its block, so each entity cell is handled once."""
        if self.join is None:
            return self.cells[j], None
        for block, idx in zip(self.join.blocks, self.join.index):
            if j < len(block):
                return block[j], idx
            j -= len(block)
        raise IndexError("column index out of range")

    def row_keys(self) -> list:
        """Every row's key, in row order: its boxed cell for a one-column key,
        else the tuple of its boxed cells; a null key cell is None."""
        cells = [box(self.cells[self.column_index(k)], NO_TAGS) for k in self.key_columns]
        return cells[0] if len(cells) == 1 else list(zip(*cells))

    def order_key(self) -> Callable[[int], object]:
        """Sort key of a row index: the repr of the row's key. A parent's children
        are aggregated, and an emitted dataset's rows are put, in this order."""
        printed = [reprs(self.cells[self.column_index(k)]) for k in self.key_columns]
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
    row/column indexes, in row-major order. A file that is not UTF-8 or that
    the csv module cannot parse yields no table and one coded diagnostic
    naming the file (and the line). The file is read once; the table's
    ``source_sha256`` is the digest of exactly those bytes, and its text has
    universal newlines, as ``Path.read_text`` would give it.

    The body is read a chunk of lines at a time, each chunk's fields parsed
    into columns by their kinds (``values.parse_column``) as they are split,
    so no list of every row or every field exists. A text that ``str.split``
    reads as ``csv.reader`` would (no quote or NUL, no blank line, every row
    as wide as the header, no line over ``csv.field_size_limit()``) is split
    on commas and newlines; any other text is read by ``csv.reader``, whose
    diagnostics it then gets.
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
    del data  # not held while the text is parsed
    if "\r" in text:  # universal newlines: CRLF and a lone CR end a line as LF does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        cells, rep = _parse(path, name, columns, _split_rows(text))
    except _Unsplittable:
        cells, rep = _parse(path, name, columns, _reader_rows(text))
    if cells is None:
        return None, rep
    return Table(name, columns, key_columns=key_columns, cells=cells,
                 source_sha256=digest), rep


class _Unsplittable(Exception):
    """The text holds something that ``str.split`` reads unlike ``csv.reader``."""


class _BadCsv(Exception):
    """``csv.reader`` failed on a line: the line's number and the reader's error."""

    def __init__(self, line: int, error: csv.Error):
        super().__init__(line, error)
        self.line = line
        self.error = error


# A chunk: the numbers of its rows, the fields of those rows one sequence per
# header column, and each ragged row left out of them as (number, field count)
_Chunk = tuple[Sequence[int], list[Sequence[str]], list[tuple[int, int]]]

_CHUNK_CHARS = 1 << 16  # body text split into fields, and parsed, at a time
_CHUNK_LINES = 1024     # rows csv.reader reads, and parsed, at a time
_LINE = re.compile(r"[^\n]*\n|[^\n]+")  # a line of newline-translated text, its newline kept


def _split_rows(text: str) -> Iterator[Union[list[str], _Chunk]]:
    """The header's fields, then the body a chunk of lines at a time, split on
    commas and newlines. Raises ``_Unsplittable``, possibly after some chunks,
    on a text that ``csv.reader`` would read otherwise."""
    if '"' in text or "\0" in text:
        raise _Unsplittable
    limit = csv.field_size_limit()
    end = text.find("\n")
    if end < 0:
        end = len(text)
    if end == 0 or end > limit:  # an empty text or header line, or a long one
        raise _Unsplittable
    header = text[:end].split(",")
    yield header
    width = len(header)
    start, stop = end + 1, len(text) - text.endswith("\n")  # stop: the last line's end
    row = 1
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS, stop)
        if end < 0:
            end = stop
        lines = text[start:end].split("\n")
        # csv.reader reads a blank line as a row of no fields
        if ("" in lines or max(map(len, lines)) > limit
                or set(map(str.count, lines, repeat(","))) != {width - 1}):
            raise _Unsplittable
        fields = ",".join(lines).split(",")
        yield range(row, row + len(lines)), [fields[j::width] for j in range(width)], []
        row += len(lines)
        start = end + 1


def _reader_rows(text: str) -> Iterator[Union[Optional[list[str]], _Chunk]]:
    """``csv.reader``'s header row (None for an empty text), then its rows a
    chunk at a time. Raises ``_BadCsv`` where the reader fails, after the
    chunk of the rows read before the failure."""
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    try:
        header = next(reader, None)
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise _BadCsv(reader.line_num, err) from None
    yield header
    if header is None:
        return
    width = len(header)
    row = 1
    while True:
        raws: list[list[str]] = []
        failure = None
        try:
            raws.extend(islice(reader, _CHUNK_LINES))  # keeps the rows read before a failure
        except csv.Error as err:
            failure = _BadCsv(reader.line_num, err)
        numbers: Sequence[int] = range(row, row + len(raws))
        row += len(raws)
        ragged = []
        if set(map(len, raws)) - {width}:
            ragged = [(n, len(raw)) for n, raw in zip(numbers, raws) if len(raw) != width]
            numbers = [n for n, raw in zip(numbers, raws) if len(raw) == width]
            raws = [raw for raw in raws if len(raw) == width]
        if numbers or ragged:
            yield numbers, list(zip(*raws)) if raws else [()] * width, ragged
        if failure is not None:
            raise failure
        if len(numbers) + len(ragged) < _CHUNK_LINES:
            return


def _parse(path: Path, name: str, columns: list[Column],
           rows: Iterator) -> tuple[Optional[list[Vec]], Report]:
    """Check the header ``rows`` yields first, then parse the chunks after it
    into one ``Vec`` per declared column, reporting every malformed cell and
    ragged row in row-major order."""
    rep = Report()
    try:
        header = next(rows)
    except _BadCsv as err:
        rep.error("bad-csv", f"{path}: line {err.line}: {err.error}", f"{path}:{err.line}")
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

    positions = [header.index(c.name) for c in columns]
    chunks: list[list[Vec]] = [[] for _ in columns]
    parsed: list[dict[str, object]] = [{} for _ in columns]  # each column's parsed fields
    # (row number, declared column position, code, message, location); a
    # ragged row is skipped whole, so -1 puts it first among its row's problems
    problems: list[tuple[int, int, str, str, Optional[str]]] = []
    failure = None
    try:
        for numbers, fields, ragged in rows:
            problems += [(n, -1, "ragged-row", f"{path}: row {n} has {count} fields, "
                          f"expected {len(header)}", None) for n, count in ragged]
            for pos, (col, j) in enumerate(zip(columns, positions)):
                column, bad = parse_column(fields[j], col.kind, parsed[pos])
                chunks[pos].append(column)
                for i, err in bad:
                    n = numbers[i]
                    problems.append((n, pos, "bad-cell", f"{path}: row {n}, column "
                                     f"{col.name!r}: {err}", f"{name}:{n}:{col.name}"))
    except _BadCsv as err:
        failure = err
    problems.sort(key=lambda p: p[:2])
    for _, _, code, message, location in problems:
        rep.error(code, message, location)
    if failure is not None:
        rep.error("bad-csv", f"{path}: line {failure.line}: {failure.error}",
                  f"{path}:{failure.line}")
        return None, rep
    return [Vec(np.concatenate([c.values for c in parts]), np.concatenate([c.null for c in parts]))
            if parts else pack([], col.kind) for parts, col in zip(chunks, columns)], rep


_BOOLEAN_TEXT = np.array(["false", "true", ""], dtype=object)


def _column_text(vec: Vec, kind: str) -> list:
    """Each row's text as ``format_cell`` prints its boxed cell, chosen by
    the column's kind: ``format_float``'s text for a number (an integral
    one below 1e15 through int64), the ISO form of each distinct day, and
    an empty field for a null of either code."""
    null = vec.null != 0
    if kind == "boolean":
        return _BOOLEAN_TEXT[np.where(null, 2, vec.values)].tolist()
    if kind == "date":
        days, inverse = np.unique(np.where(null, 1, vec.values), return_inverse=True)
        iso = np.array([_dt.date.fromordinal(d).isoformat() for d in days.tolist()] + [""],
                       dtype=object)
        return iso[np.where(null, len(days), inverse)].tolist()
    if kind != "numeric":
        return np.where(null, "", vec.values).tolist()
    v = vec.values
    integral = ~null & (np.trunc(v) == v) & (np.abs(v) < 1e15)
    rest = ~null & ~integral
    text = np.full(len(v), "", dtype=object)
    text[integral] = v[integral].astype(np.int64).astype(str)
    text[rest] = np.array(list(map(repr, v[rest].tolist())), dtype=object)
    return text.tolist()


class _Lines:
    """A csv.writer target keeping each row's line: the writer makes one
    ``write`` call per row."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


def _csv_lines(columns: Sequence[Sequence[str]]) -> list[str]:
    """Each row of the text columns as one CSV line, terminator included."""
    lines: list[str] = []
    csv.writer(_Lines(lines), lineterminator="\n").writerows(zip(*columns))
    return lines


_CHUNK_ROWS = 4096  # output rows formatted, joined and encoded at a time


def table_to_csv_bytes(table: Table) -> bytes:
    """Serialize with format_cell's text for every cell, formatting one column
    at a time. Each block row of a join view is formatted and quoted once,
    and its fragment is repeated along the index; a column-major table is
    the one-block case, formatted as it is written. Rows are formatted,
    joined and encoded a chunk at a time, so the whole text is never held
    beside its bytes."""
    kinds = [c.kind for c in table.columns]
    if table.join is not None:
        starts = np.cumsum([0] + table.join.widths).tolist()
        blocks = [(block, idx, kinds[a:b]) for block, idx, a, b
                  in zip(table.join.blocks, table.join.index, starts, starts[1:]) if b > a]
    else:
        blocks = [(table.cells, None, kinds)]
    last = len(blocks) - 1

    def fragments(b: int, columns: list[Vec], kinds: list[str]) -> list[str]:
        lines = _csv_lines([_column_text(vec, kind) for vec, kind in zip(columns, kinds)])
        if len(kinds) == 1 and len(table.columns) > 1:
            # csv quotes a row's lone empty field; inside a wider row it is bare
            lines = ["\n" if line == '""\n' else line for line in lines]
        return [line[:-1] + "," for line in lines] if b < last else lines

    formatted = [None if idx is None else fragments(b, block, kinds)
                 for b, (block, idx, kinds) in enumerate(blocks)]
    out = io.BytesIO()
    out.write("".join(_csv_lines([[name] for name in table.column_names])).encode("utf-8"))
    for start in range(0, table.row_count, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        picked = [fragments(b, [column.take(slice(start, stop)) for column in block], kinds)
                  if lines is None else list(map(lines.__getitem__, idx[start:stop].tolist()))
                  for b, ((block, idx, kinds), lines) in enumerate(zip(blocks, formatted))]
        body = picked[0]
        if len(picked) > 1:
            body = [None] * sum(map(len, picked))
            for b, fragment in enumerate(picked):
                body[b::len(picked)] = fragment
        out.write("".join(body).encode("utf-8"))
    return out.getvalue()


def write_csv(table: Table, path: str | Path) -> None:
    Path(path).write_bytes(table_to_csv_bytes(table))
