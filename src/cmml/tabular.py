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
nothing in the pipeline reads it. The writer formats a column a chunk of
rows at a time by its kind, printing each distinct number or day once a
chunk (``format_float``'s text, the ISO form), quoting a text column with
``csv.writer`` only when a field needs quotes, and writing an empty field for
a null of either code. It joins the fields into lines with ``str.join`` and
writes them to the file a piece at a time (``write_csv``), so neither the
file's text nor its bytes are ever held whole. A join view's block is
formatted a chunk of output rows at a time, each block row the chunk takes
once.

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
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from .diagnostics import Report, not_utf8
from .values import NO_TAGS, Vec, box, pack, parse_column


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
    consumed: bool = False          # feeds a same-entity derived attribute; dropped at emit
    key: bool = False               # a key or foreign key of its entity (EerSchema.key_columns)
    subtype: Optional[tuple[str, str]] = None  # (generalization, subtype) owning the column
    imputed_cells: int = 0

    def clone(self, **changes) -> "Column":
        """A copy sharing no list or dict with this column, ``changes`` applied."""
        return replace(self, origin_entities=list(self.origin_entities),
                       source_attributes=list(self.source_attributes),
                       params=dict(self.params), guidelines=list(self.guidelines), **changes)

    @property
    def identifying(self) -> bool:
        """A key, a foreign key or an identifier: never a feature."""
        return self.key or self.kind == "identifier"

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
        rep.error("encoding", not_utf8(path, err))
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
_EPOCH = _dt.date(1970, 1, 1).toordinal()  # a day's ordinal less this is its datetime64[D]


class _Lines:
    """A csv.writer target keeping each row's line: the writer makes one
    ``write`` call per row."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


def _quoted(fields: np.ndarray) -> np.ndarray:
    """Each field as csv.writer writes it inside a wider row, an object
    array. A column with no comma, quote, CR or LF is returned as it is; any
    other is quoted by csv.writer, one field a row, so the running Python
    decides (3.13 quotes a bare CR, 3.10-3.12 do not)."""
    listed = fields.tolist()
    joined = "".join(listed)
    if not any(c in joined for c in ',"\r\n'):
        return fields
    lines: list[str] = []
    csv.writer(_Lines(lines), lineterminator="\n").writerows(zip(listed))
    return np.array(["" if line == '""\n' else line[:-1] for line in lines], dtype=object)


def _column_text(vec: Vec, kind: str) -> np.ndarray:
    """Each row's CSV field as csv.writer writes ``format_cell``'s text of its
    boxed cell inside a wider row, an object array: each distinct number
    printed once as ``format_float`` prints it, each distinct day's ISO form,
    a text quoted only where it needs quotes, and an empty field for a null
    of either code. Equal numbers, days and booleans share one string."""
    null = vec.null != 0
    if kind == "boolean":
        return _BOOLEAN_TEXT[np.where(null, 2, vec.values)]
    if kind not in ("numeric", "date"):
        return _quoted(np.where(null, "", vec.values).astype(object, copy=False))
    distinct, inverse = np.unique(vec.values[~null], return_inverse=True)
    if kind == "date":
        printed = np.datetime_as_string((distinct - _EPOCH).astype("datetime64[D]")).tolist()
    else:
        printed = list(map(repr, distinct.tolist()))
    printed = np.array(printed + [""], dtype=object)
    if kind == "numeric":  # format_float prints an integral value below 1e15 through int
        integral = np.flatnonzero((np.abs(distinct) < 1e15) & (np.trunc(distinct) == distinct))
        printed[integral] = distinct[integral].astype(np.int64).astype(str)
    codes = np.full(len(null), len(distinct))
    codes[~null] = inverse
    return printed[codes]


_CHUNK_ROWS = 8192  # rows formatted a column at a time; fewer make a join's calls small and many
_PIECE_ROWS = 512   # rows assembled, encoded and written at a time


def _lines(columns: list[Vec], kinds: list[str], rows, lone: bool) -> list[str]:
    """The fields of the columns' ``rows`` (a slice or row indexes), each
    column formatted at once (``_column_text``), joined into one string a
    row with ``str.join``. ``lone``: the table has one column, whose empty
    field csv.writer writes as ``""``."""
    fields = []
    for vec, kind in zip(columns, kinds):
        text = _column_text(vec.take(rows), kind)
        fields.append((np.where(text == "", '""', text) if lone else text).tolist())
    return list(map(",".join, zip(*fields)))


def _write_table(table: Table, out: BinaryIO) -> None:
    """Write the table's CSV to the binary file ``out``: format_cell's text
    for every cell, as csv.writer would write it. Columns are formatted
    ``_CHUNK_ROWS`` rows at a time (``_lines``), and ``_PIECE_ROWS`` lines
    at a time are assembled, encoded and written, so neither the file's text
    nor its bytes are held whole.

    A join view's line is assembled from one string per block, each block
    formatted a chunk of output rows at a time: the block rows the chunk
    takes are formatted once each and their strings gathered along the
    index, so no string per block row is kept."""
    lone = len(table.columns) == 1
    if table.columns:
        names = _quoted(np.array(table.column_names, dtype=object))
        out.write((",".join('""' if lone and n == "" else n for n in names) + "\n").encode("utf-8"))
    kinds = [c.kind for c in table.columns]
    # per block with columns: its index (None: a column-major table's rows in
    # order), its columns and kinds
    blocks = [(None, table.cells, kinds)]
    if table.join is not None:
        starts = np.cumsum([0] + table.join.widths).tolist()
        blocks = [(idx, block, kinds[a:b]) for block, idx, a, b
                  in zip(table.join.blocks, table.join.index, starts, starts[1:]) if b > a]
    # a piece's lines, one string a block, with a comma between and a newline after
    step = 2 * len(blocks)
    line = [","] * (step - 1) + ["\n"]
    for first in range(0, table.row_count, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, table.row_count - first)
        chunk = []
        for idx, block, block_kinds in blocks:
            if idx is None:
                chunk.append(_lines(block, block_kinds, slice(first, first + count), lone))
                continue
            rows, inverse = np.unique(idx[first:first + count], return_inverse=True)
            lines = np.array(_lines(block, block_kinds, rows, lone), dtype=object)
            chunk.append(lines[inverse].tolist())
        for start in range(0, count, _PIECE_ROWS):
            body = line * min(_PIECE_ROWS, count - start)
            for b, strings in enumerate(chunk):
                body[2 * b::step] = strings[start:start + _PIECE_ROWS]
            out.write("".join(body).encode("utf-8"))


def table_to_csv_bytes(table: Table) -> bytes:
    """The table's CSV bytes, as ``write_csv`` writes them, gathered in
    memory: the whole file is held, so it serves tables of one row per root
    entity (``prepare``'s datasets)."""
    out = io.BytesIO()
    _write_table(table, out)
    return out.getvalue()


def write_csv(table: Table, path: str | Path) -> None:
    """Write the table's CSV to ``path`` a piece at a time (``_write_table``).
    A write that fails removes the partly written file and re-raises."""
    path = Path(path)
    try:
        with path.open("wb") as out:
            _write_table(table, out)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
