"""``read_csv`` against a reference that always reads with ``csv.reader``.

The reference is the reader as it was before ``read_csv`` split quote-free
text itself: one ``csv.reader`` over ``io.StringIO(text, newline=None)``,
every row read, then transposed and parsed. ``read_csv`` must give the same
cells, ``source_sha256`` and report (codes, messages and locations) on every
text, whichever of its two paths reads it.
"""

import csv
import hashlib
import io
import random
import tracemalloc
from pathlib import Path

import pytest

from cmml import tabular
from cmml.diagnostics import Report
from cmml.tabular import Column, read_csv
from cmml.values import box, parse_column

COLUMNS = [Column("id", "identifier"), Column("v", "numeric"), Column("d", "date"),
           Column("b", "boolean"), Column("t", "text")]


def reference_read_csv(path: Path, name: str, columns: list[Column]):
    """The cells (None when there is no table), the file's SHA-256 and the report."""
    rep = Report()
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        rep.error("encoding", f"{path}: not UTF-8: byte 0x{err.object[err.start]:02x} "
                              f"at offset {err.start}")
        return None, None, rep
    digest = hashlib.sha256(data).hexdigest()
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        header = next(reader, None)
    except csv.Error as err:
        rep.error("bad-csv", f"{path}: line {reader.line_num}: {err}", f"{path}:{reader.line_num}")
        return None, digest, rep
    if header is None:
        rep.error("missing-header", f"{path} is empty (header row required)")
        return None, digest, rep
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
        return None, digest, rep
    raws, failure = [], None
    try:
        for raw in reader:
            raws.append(raw)
    except csv.Error as err:
        failure = err
    problems = []
    kept = []
    for n, raw in enumerate(raws, start=1):
        if len(raw) == len(header):
            kept.append((n, raw))
        else:
            problems.append((n, -1, "ragged-row",
                             f"{path}: row {n} has {len(raw)} fields, expected {len(header)}", None))
    cells = []
    for pos, col in enumerate(columns):
        j = header.index(col.name)
        column, bad = parse_column([raw[j] for _, raw in kept], col.kind)
        cells.append(column)
        for i, err in bad:
            n = kept[i][0]
            problems.append((n, pos, "bad-cell", f"{path}: row {n}, column {col.name!r}: {err}",
                             f"{name}:{n}:{col.name}"))
    problems.sort(key=lambda p: p[:2])
    for _, _, code, message, location in problems:
        rep.error(code, message, location)
    if failure is not None:
        rep.error("bad-csv", f"{path}: line {reader.line_num}: {failure}",
                  f"{path}:{reader.line_num}")
        return None, digest, rep
    return cells, digest, rep


@pytest.fixture
def reader_calls(monkeypatch):
    """How many times read_csv fell back to csv.reader."""
    calls = []
    reader_rows = tabular._reader_rows

    def counted(text):
        calls.append(text)
        return reader_rows(text)

    monkeypatch.setattr(tabular, "_reader_rows", counted)
    return calls


@pytest.fixture
def field_limit():
    """csv.field_size_limit() set to 64 for the test, so short texts cross it."""
    old = csv.field_size_limit(64)
    yield 64
    csv.field_size_limit(old)


def _check(tmp_path: Path, data: bytes, columns: list[Column] = COLUMNS) -> None:
    """read_csv and the reference read the same table and report from ``data``."""
    path = tmp_path / "T.csv"
    path.write_bytes(data)
    table, rep = read_csv(path, "T", columns, key_columns=["id"])
    cells, digest, want = reference_read_csv(path, "T", columns)
    assert rep.to_dicts() == want.to_dicts()
    if cells is None:
        assert table is None
        return
    assert table.source_sha256 == digest
    assert table.column_names == [c.name for c in columns]
    assert [list(map(repr, box(c))) for c in table.cells] == [list(map(repr, box(c))) for c in cells]
    assert [c.values.dtype for c in table.cells] == [c.values.dtype for c in cells]


# Each text that str.split would not read as csv.reader does; read_csv must
# hand all of it to csv.reader
TRIGGERS = {
    "quote": 'id,t\nx,"a,b"\n',
    "quote inside a field": 'id,t\nx,a"b\n',
    "quoted LF": 'id,t\nx,"a\nb"\n',
    "quoted CRLF": 'id,t\r\nx,"a\r\nb"\r\n',
    "quoted lone CR": 'id,t\rx,"a\rb"\r',
    "NUL": "id,t\nx,a\x00b\n",
    "blank line": "id,t\nx,a\n\ny,b\n",
    "blank last line": "id,t\nx,a\n\n",
    "CRLF blank line": "id,t\r\nx,a\r\n\r\n",
    "blank header": "\nid,t\nx,a\n",
    "blank line in a one-column table": "id\nx\n\ny\n",
    "ragged row": "id,t\nx\ny,b\n",
    "wide row": "id,t\nx,a,b\n",
    "field over the limit": "id,t\nx," + "a" * 65 + "\n",
    "line over the limit": "id,t\nx," + "a" * 63 + "\n",
    "header over the limit": "id,t," + "h" * 70 + "\nx,a,b\n",
    # ragged as csv.reader reads it; str.splitlines would make two good rows
    "LS between two rows' worth of fields": "id,t\nx,a\u2028y,b\n",
    "empty": "",
}

# Texts that str.split reads as csv.reader does
SPLITTABLE = {
    "LF": "id,t\nx,a\ny,\n",
    "CRLF": "id,t\r\nx,a\r\ny,b\r\n",
    "lone CR": "id,t\rx,a\ry,b\r",
    "mixed line ends": "id,t\r\nx,a\ry,b\nz,c",
    "no trailing newline": "id,t\nx,a",
    "header only": "id,t\n",
    "header only, no newline": "id,t",
    "empty fields": "id,t\n,\nx,\n",
    "BOM": "\ufeffid,t\nx,a\n",
    "non-ASCII": "id,t\nü,日本語\nß,é\n",
    "spaces": "id,t\n x , a \n",
    "line at the limit": "id,t\nx," + "a" * 62 + "\n",
    # str.splitlines would end a line at each of these
    "VT and FF": "id,t\nx,a\x0bb\x0cc\n",
    "FS, GS, RS": "id,t\nx,a\x1cb\x1dc\x1ed\n",
    "NEL, LS, PS": "id,t\nx,a\x85b\u2028c\u2029d\n",
    "LS in a one-column table": "id\na\u2028b\nc\n",
}


@pytest.mark.parametrize("text", TRIGGERS.values(), ids=TRIGGERS.keys())
def test_each_trigger_falls_back_to_csv_reader(text, tmp_path, reader_calls, field_limit):
    columns = [Column("id", "identifier"), Column("t", "text")]
    if text.startswith("id\n"):
        columns = columns[:1]
    if "h" * 70 in text:
        columns = columns + [Column("h" * 70, "text")]
    _check(tmp_path, text.encode("utf-8"), columns)
    assert len(reader_calls) == 1


@pytest.mark.parametrize("text", SPLITTABLE.values(), ids=SPLITTABLE.keys())
def test_quote_free_text_is_split(text, tmp_path, reader_calls, field_limit):
    columns = [Column("id", "identifier"), Column("t", "text")]
    if text.startswith("id\n"):
        columns = columns[:1]
    _check(tmp_path, text.encode("utf-8"), columns)
    assert reader_calls == []


@pytest.mark.parametrize("text", [
    "id,v,d,b,t\nx,abc,2019-01-02,maybe,\ny,1,2019-02-30,,\nz,inf,,true,q\n",
    "id,v,d,b,t\nx,1,2019-01-02,true,a\nx,1e999,20190102,TRUE,b\n",
    "v,id,t,b,d\n1,x,a,true,2019-01-01\n",
    "id,v,d,b\nx,1,,\n",
    "id,v,d,b,t,t\nx,1,,,a,a\n",
    "id,v,d,b,t,extra\nx,1,,,a,a\n",
])
def test_cell_and_header_diagnostics_on_the_split_path(text, tmp_path, reader_calls):
    _check(tmp_path, text.encode("utf-8"))
    assert reader_calls == []


def test_a_trigger_in_a_later_chunk_restarts_with_csv_reader(tmp_path, reader_calls,
                                                             monkeypatch):
    monkeypatch.setattr(tabular, "_CHUNK_CHARS", 8)
    body = "".join(f"r{i},{i},,true,t{i}\n" for i in range(40))
    for tail in ("x,1,,,\n\n", "x,1,,\n", 'x,1,,,"q"\n', "x,bad,,,\n"):
        _check(tmp_path, ("id,v,d,b,t\n" + body + tail).encode("utf-8"))
    # a blank line, a ragged row and a quote each send the whole text to csv.reader
    assert len(reader_calls) == 3


def test_not_utf8_is_reported_before_either_path(tmp_path, reader_calls):
    _check(tmp_path, b"id,t\nx,\xff\n")
    assert reader_calls == []


# Fields of each kind: good, empty and malformed ones, and characters that
# str.splitlines would take for line ends
FIELDS = {
    "identifier": ["a", "x1", "é", "日本", "", " k", "id\u2028x"],
    "numeric": ["1", "-0", "2.5", "", "1e3", " 7", "abc", "inf", "-0.0"],
    "date": ["2019-01-02", "", "2019-13-01", "20190102", "2020-02-29"],
    "boolean": ["true", "false", "", "yes"],
    "text": ["hello", "", "a b", "ü", "a\x0bb", "x\x1cy", "p\u2028q", "tab\there", "\x85",
             "\u2029", "\x0c"],
}


def _random_text(rng: random.Random, columns: list[Column], limit: int) -> str:
    """A CSV text over the columns, each trigger drawn with a small chance."""
    header = [c.name for c in columns]
    rng.shuffle(header)
    kinds = {c.name: c.kind for c in columns}
    lines = [",".join(header)]
    for _ in range(rng.randrange(0, 30)):
        fields = [rng.choice(FIELDS[kinds[h]]) for h in header]
        roll = rng.random()
        if roll < 0.02:
            fields[rng.randrange(len(fields))] = rng.choice(
                ['"q"', '"q,x"', '"q\nx"', '"q\r\nx"', '"q\rx"', '"q""x"', 'q"x'])
        elif roll < 0.03:
            fields[-1] += "\x00"
        elif roll < 0.04:
            fields.pop()
        elif roll < 0.05:
            fields.append("z")
        elif roll < 0.06:
            fields[-1] += "w" * (limit + rng.randrange(-2, 3))
        elif roll < 0.07:
            lines.append("")
        lines.append(",".join(fields))
    newline = rng.choice(["\n", "\n", "\r\n", "\r"])
    text = newline.join(lines) + rng.choice([newline, ""])
    return ("\ufeff" if rng.random() < 0.05 else "") + text


@pytest.mark.parametrize("chunk", [1, 40, None], ids=["chunk=1", "chunk=40", "chunk=default"])
@pytest.mark.parametrize("seed", range(60))
def test_random_texts_equal_the_reference(seed, chunk, tmp_path, monkeypatch, reader_calls,
                                          field_limit):
    if chunk is not None:
        monkeypatch.setattr(tabular, "_CHUNK_CHARS", chunk)
        monkeypatch.setattr(tabular, "_CHUNK_LINES", max(1, chunk // 10))
    rng = random.Random(seed)
    columns = rng.sample(COLUMNS, rng.randrange(1, len(COLUMNS) + 1))
    for _ in range(10):
        _check(tmp_path, _random_text(rng, columns, field_limit).encode("utf-8"), columns)


def test_random_texts_reach_both_paths(tmp_path, reader_calls, field_limit):
    reads = 0
    for seed in range(60):
        rng = random.Random(seed)
        columns = rng.sample(COLUMNS, rng.randrange(1, len(COLUMNS) + 1))
        for _ in range(10):
            _check(tmp_path, _random_text(rng, columns, field_limit).encode("utf-8"), columns)
            reads += 1
    assert reads // 5 < len(reader_calls) < reads - reads // 5


def test_transient_memory_is_bounded_by_the_file_size(tmp_path):
    rng = random.Random(7)
    rows = [f"c{i:06d},{rng.uniform(0, 1000):.2f},2019-{rng.randrange(1, 13):02d}-"
            f"{rng.randrange(1, 29):02d},{rng.choice(['true', 'false', ''])},n{i % 97}\n"
            for i in range(50_000)]
    path = tmp_path / "T.csv"
    path.write_text("id,v,d,b,t\n" + "".join(rows), encoding="utf-8")
    del rows
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table, rep = read_csv(path, "T", COLUMNS, key_columns=["id"])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and table.row_count == 50_000
    # the file's bytes and text, one chunk's fields, the growing columns
    assert peak - retained <= 6 * size, (peak - retained) / size
