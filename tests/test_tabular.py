import csv
import datetime as dt
import hashlib
import io
import random

import numpy as np
import pytest

from cmml import binder, eer, engine, planner
from cmml.tabular import Column, JoinRows, Table, read_csv, table_to_csv_bytes, write_csv
from cmml.values import NOT_APPLICABLE, UNKNOWN, format_cell, pack, parse_cell
from conftest import CLOCK, column, parse_full
from propgen import Case


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


COLS = [Column("id", "identifier"), Column("v", "numeric"), Column("d", "date"),
        Column("b", "boolean")]


def test_read_csv_basic(tmp_path):
    p = _write(tmp_path, "T.csv", "id,v,d,b\nx,1.5,2019-01-02,true\ny,,,\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert rep.ok, rep.render()
    # an empty field reads as unknown
    assert table.rows == [["x", 1.5, dt.date(2019, 1, 2), True], ["y", UNKNOWN, UNKNOWN, UNKNOWN]]


def test_read_csv_any_column_order(tmp_path):
    p = _write(tmp_path, "T.csv", "b,id,d,v\ntrue,x,2019-01-02,1.5\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert rep.ok
    # normalized to declared order
    assert table.column_names == ["id", "v", "d", "b"]
    assert table.rows == [["x", 1.5, dt.date(2019, 1, 2), True]]


def test_read_csv_header_mismatch(tmp_path):
    p = _write(tmp_path, "T.csv", "id,v\nx,1\n")
    _, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert not rep.ok


def test_read_csv_extra_column_rejected(tmp_path):
    p = _write(tmp_path, "T.csv", "id,v,d,b,zzz\nx,1,,,9\n")
    _, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert not rep.ok


def test_read_csv_cell_diagnostics_name_row_and_column(tmp_path):
    p = _write(tmp_path, "T.csv", "id,v,d,b\nx,notanumber,2019-01-02,true\n")
    _, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert not rep.ok
    msg = rep.errors[0].location or rep.errors[0].message
    assert msg == "T:1:v"  # data row 1, column v


def test_read_csv_duplicated_column_is_coded(tmp_path):
    p = _write(tmp_path, "T.csv", "id,v,d,b,v\nx,1,,,2\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert table is None
    assert [(d.code, d.message) for d in rep.errors] == [
        ("duplicate-column", f"{p}: duplicated column(s) ['v']")]


def test_read_csv_bad_cells_in_row_major_order(tmp_path):
    # bad cells in two columns across three rows, around a ragged row; the
    # list is the one the row-at-a-time reader gave
    p = _write(tmp_path, "T.csv", "id,v,d,b\nx,abc,2019-01-02,maybe\ny,1,,\nz,1\n"
                                  "w,inf,2019-01-03,true\nu,2,2019-01-03,yes\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert [(d.code, d.message, d.location) for d in rep.diagnostics] == [
        ("bad-cell", f"{p}: row 1, column 'v': could not convert string to float: 'abc'", "T:1:v"),
        ("bad-cell", f"{p}: row 1, column 'b': expected 'true' or 'false', got 'maybe'", "T:1:b"),
        ("ragged-row", f"{p}: row 3 has 2 fields, expected 4", None),
        ("bad-cell", f"{p}: row 4, column 'v': expected a finite number, got 'inf'", "T:4:v"),
        ("bad-cell", f"{p}: row 5, column 'b': expected 'true' or 'false', got 'yes'", "T:5:b"),
    ]
    # a malformed cell, like an empty one, reads as unknown
    assert table.rows == [["x", UNKNOWN, dt.date(2019, 1, 2), UNKNOWN], ["y", 1.0, UNKNOWN, UNKNOWN],
                          ["w", UNKNOWN, dt.date(2019, 1, 3), True],
                          ["u", 2.0, dt.date(2019, 1, 3), UNKNOWN]]


@pytest.mark.parametrize("seed", range(120))
def test_read_csv_cells_equal_parse_cell_per_field(seed, tmp_path):
    for name, table in Case(seed).bundle.tables.items():
        path = tmp_path / f"{name}.csv"
        write_csv(table, path)
        read, rep = read_csv(path, name, [Column(c.name, c.kind) for c in table.columns])
        assert rep.ok, rep.render()
        with path.open(encoding="utf-8", newline="") as fh:
            header, *fields = csv.reader(fh)
        assert header == read.column_names
        kinds = [c.kind for c in table.columns]
        assert read.rows == [[_parsed(t, k) for t, k in zip(row, kinds)] for row in fields]


def _parsed(text: str, kind: str):
    """``parse_cell``'s cell, an empty field read as unknown."""
    v = parse_cell(text, kind)
    return UNKNOWN if v is None else v


def test_read_csv_not_utf8_is_coded(tmp_path):
    p = tmp_path / "T.csv"
    p.write_bytes(b"id,v,d,b\nx,1,,\nr\xe9,2,,\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert table is None
    assert [d.code for d in rep.errors] == ["encoding"]
    assert str(p) in rep.errors[0].message
    assert "0xe9" in rep.errors[0].message


@pytest.mark.parametrize("data,offset", [
    (b"id,v,d,b\nx,1,,\nr\xe9,2,,\n", 16),
    # far past any read buffer, after CRLF line ends
    (b"id,v,d,b\r\n" + b"x,1,,\r\n" * 20_000 + b"r\xe9,2,,\r\n", 140_011),
    (b"id,v,d,b\nx,1,,\ny\xc3", 16),  # a sequence cut off by the end of the file
])
def test_read_csv_not_utf8_names_the_byte_and_its_offset(tmp_path, data, offset):
    p = tmp_path / "T.csv"
    p.write_bytes(data)
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert table is None
    assert [(d.code, d.message) for d in rep.diagnostics] == [
        ("encoding", f"{p}: not UTF-8: byte 0x{data[offset]:02x} at offset {offset}")]


def test_read_csv_source_sha256_is_the_file_digest(tmp_path):
    # columns out of declared order, CRLF line ends and a float that the
    # writer would print as 1.5: the digest is of these bytes, not of the
    # table written out again
    data = b"b,id,d,v\r\ntrue,x,2019-01-02,1.50\r\nfalse,y,,\r\n"
    p = tmp_path / "T.csv"
    p.write_bytes(data)
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert rep.ok, rep.render()
    assert table.source_sha256 == hashlib.sha256(data).hexdigest()
    assert table_to_csv_bytes(table) != data
    assert Table("T", COLS).source_sha256 is None


TEXT_COLS = [Column("id", "identifier"), Column("t", "text"), Column("v", "numeric")]


@pytest.mark.parametrize("data", [
    b"id,t,v\r\nx,a b,1.5\r\ny,,\r\n",
    b'id,t,v\r\nx,"a\r\nb",1\r\ny,"c\rd",2\r\nz,"e\r\n\rf\n",\n',
    b'id,t,v\rx,p,1\ry,"p\rq",2\r',
    b'id,t,v\n"x\r\n",t,3\n',
])
def test_read_csv_translates_newlines_as_read_text_does(tmp_path, data):
    # CRLF and a lone CR end a line, and inside a quoted field each becomes
    # one newline: the cells are those of the fields of Path.read_text's text
    p = tmp_path / "T.csv"
    p.write_bytes(data)
    table, rep = read_csv(p, "T", TEXT_COLS, key_columns=["id"])
    assert rep.ok, rep.render()
    header, *fields = csv.reader(io.StringIO(p.read_text(encoding="utf-8")))
    assert header == table.column_names
    assert table.rows == [[_parsed(f, c.kind) for f, c in zip(row, TEXT_COLS)]
                          for row in fields]
    assert not any("\r" in cell for cell in column(table, "t") if isinstance(cell, str))


def test_read_csv_crlf_diagnostics_equal_lf(tmp_path):
    # the same bad cells and ragged row, line for line, whatever ends the lines
    text = "id,v,d,b\nx,abc,2019-01-02,maybe\ny,1,,\nz,1\nw,inf,2019-01-03,true\n"
    seen = []
    for newline in ("\n", "\r\n", "\r"):
        directory = tmp_path / str(len(seen))
        directory.mkdir()
        p = directory / "T.csv"
        p.write_bytes(text.replace("\n", newline).encode("utf-8"))
        table, rep = read_csv(p, "T", COLS, key_columns=["id"])
        seen.append(([(d.code, d.message.replace(str(p), "T.csv"), d.location)
                      for d in rep.diagnostics], table.rows))
    assert seen[0][0][2] == ("ragged-row", "T.csv: row 3 has 2 fields, expected 4", None)
    assert seen[0] == seen[1] == seen[2]


UNPARSEABLE = [
    (["id,v,d,b", "x,1,,", "y," + "9" * 200_000 + ",,"], 3),
    (["id,v,d,b", "x,1,,", "y,2,,", 'z,"' + "4" * 200_000 + '",,'], 4),
    (["id,v,d,b," + "h" * 200_000, "x,1,,"], 1),
]


@pytest.mark.parametrize("lines,line", UNPARSEABLE)
def test_read_csv_unparseable_csv_is_coded(tmp_path, lines, line):
    p = _write(tmp_path, "T.csv", "\n".join(lines) + "\n")
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert table is None
    assert [d.code for d in rep.errors] == ["bad-csv"]
    assert rep.errors[0].message.startswith(f"{p}: line {line}: field larger than field limit")
    assert rep.errors[0].location == f"{p}:{line}"


@pytest.mark.parametrize("lines,line", UNPARSEABLE)
def test_read_csv_unparseable_crlf_csv_names_the_same_line(tmp_path, lines, line):
    p = tmp_path / "T.csv"
    p.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    table, rep = read_csv(p, "T", COLS, key_columns=["id"])
    assert table is None
    assert [(d.code, d.location) for d in rep.errors] == [("bad-csv", f"{p}:{line}")]
    assert rep.errors[0].message.startswith(f"{p}: line {line}: field larger than field limit")


def test_write_deterministic_bytes(tmp_path):
    t = Table("T", COLS, rows=[["x", 48.0, dt.date(2019, 1, 2), True]],
              key_columns=["id"])
    b1 = table_to_csv_bytes(t)
    b2 = table_to_csv_bytes(t)
    assert b1 == b2
    assert b1 == b"id,v,d,b\nx,48,2019-01-02,true\n"
    write_csv(t, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == b1


def distinct_key_count(table: Table) -> int:
    if not table.key_columns:
        raise ValueError(f"table {table.name!r} has no key columns set")
    return len(set(table.row_keys()))


def test_distinct_key_count():
    t = Table("T", [Column("id", "identifier"), Column("v", "numeric")],
              rows=[["a", 1.0], ["a", 2.0], ["b", 3.0]], key_columns=["id"])
    assert distinct_key_count(t) == 2


# Cells of each kind a column can hold; None and both tags are its nulls
POOLS = {
    "numeric": [0.0, -0.0, 7.0, -12.0, 1.5, -3.0, 48.0, 1e15, 1e15 - 1, -1e15, 2.5e-7, 1e300, 1e16,
                0.1 + 0.2],
    "boolean": [True, False],
    "date": [dt.date(2019, 4, 21), dt.date(1, 1, 1), dt.date(9999, 12, 31)],
    "text": ["", "plain", "a,b", 'say "hi"', "two\nlines", " padded ", "caf\u00e9"],
}
NULLS = [UNKNOWN, NOT_APPLICABLE, None]


def _random_cells(rng, kind, n):
    return [rng.choice(POOLS[kind] + NULLS) for _ in range(n)]


def _reference_csv_bytes(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("seed", range(20))
def test_table_to_csv_bytes_matches_per_cell_format_cell(seed):
    rng = random.Random(seed)
    kinds = [rng.choice(list(POOLS)) for _ in range(rng.randint(1, 6))]
    n = rng.randint(0, 40)
    columns = [_random_cells(rng, kind, n) for kind in kinds]
    table = Table("T", [Column(f"c{j}", kind) for j, kind in enumerate(kinds)],
                  rows=[list(row) for row in zip(*columns)] if n else [])
    assert table_to_csv_bytes(table) == _reference_csv_bytes(table)


@pytest.mark.parametrize("seed", range(40))
def test_table_to_csv_bytes_matches_per_cell_format_cell_propgen(seed):
    case = Case(seed)
    task = case.schema.task("T")
    plan = planner.compile_plan(case.bound.schema, task, planner.PlanOptions.from_task(task))
    datasets, _ = engine.execute(plan, case.bound, engine.Derivations(case.bound, CLOCK))
    for table in [*case.bundle.tables.values(), *(ds.table for ds in datasets)]:
        assert table_to_csv_bytes(table) == _reference_csv_bytes(table), table.name


@pytest.mark.parametrize("cells,text", [
    (("numeric", [-0.0, 0.0, -0.0, 2.5]), ["0", "0", "0", "2.5"]),
    (("numeric", [1e15, 1e15, 1e15 - 1, -1e15]), ["1000000000000000.0", "1000000000000000.0",
                                                  "999999999999999", "-1000000000000000.0"]),
    (("boolean", [True, None, False, True]), ["true", "", "false", "true"]),
    (("date", [dt.date(2019, 4, 21), UNKNOWN, dt.date(2019, 4, 21), NOT_APPLICABLE]),
     ["2019-04-21", "", "2019-04-21", ""]),
])
def test_table_to_csv_bytes_column_memo_keeps_each_cell_text(cells, text):
    # equal values share one text; a null of either code is an empty field
    kind, cells = cells
    table = Table("T", [Column("k", "identifier"), Column("c", kind)],
                  rows=[[f"k{i}", v] for i, v in enumerate(cells)])
    assert table_to_csv_bytes(table) == _reference_csv_bytes(table)
    assert [line.split(",")[1] for line in table_to_csv_bytes(table).decode().splitlines()[1:]] \
        == text


def test_table_to_csv_bytes_lone_null_column():
    # csv quotes a row's lone empty field, but not one beside another field
    for cells in ([UNKNOWN, None, NOT_APPLICABLE], [None]):
        alone = Table("T", [Column("c", "numeric")], rows=[[v] for v in cells])
        assert table_to_csv_bytes(alone) == _reference_csv_bytes(alone)
        assert table_to_csv_bytes(alone) == b"c\n" + b'""\n' * len(cells)
        beside = Table("T", [Column("k", "identifier"), Column("c", "numeric")],
                       rows=[["k", v] for v in cells])
        assert table_to_csv_bytes(beside) == _reference_csv_bytes(beside)
        assert table_to_csv_bytes(beside) == b"k,c\n" + b"k,\n" * len(cells)


def test_table_to_csv_bytes_every_pooled_cell():
    written = {}
    for kind, pool in POOLS.items():
        table = Table("T", [Column("c", kind)], rows=[[v] for v in pool + NULLS])
        assert table_to_csv_bytes(table) == _reference_csv_bytes(table)
        written[kind] = table_to_csv_bytes(table).decode("utf-8")
    assert "\n1000000000000000.0\n" in written["numeric"]  # 1e15 keeps its repr
    assert "\n999999999999999\n" in written["numeric"]
    assert "\n1e+16\n" in written["numeric"]
    assert "\n0001-01-01\n9999-12-31\n" in written["date"]


# ---------------------------------------------------------------------------
# Join views: the writer formats each block row once and must write the
# bytes the materialized rows would give.


def _materialized(table):
    return Table(table.name, table.columns, [list(row) for row in table.rows],
                 key_columns=table.key_columns)


def _kind(cells):
    """The kind of a column of boxed cells, from its first value; text when
    every cell is null."""
    v = next((v for v in cells if v is not None and v not in NULLS), "")
    return ("boolean" if isinstance(v, bool) else "numeric" if isinstance(v, (int, float))
            else "date" if isinstance(v, dt.date) else "text")


def _join_table(blocks, index):
    """A join view of ``blocks``, given as each block's row tuples."""
    columns = [[list(column) for column in zip(*block)] for block in blocks]
    kinds = [_kind(column) for block in columns for column in block]
    rows = JoinRows([[pack(column, _kind(column)) for column in block] for block in columns],
                    [np.array(idx, dtype=np.int64) for idx in index])
    return Table("J", [Column(f"c{j}", kind) for j, kind in enumerate(kinds)], rows)


def _check_view(table):
    view_bytes = table_to_csv_bytes(table)
    assert view_bytes == _reference_csv_bytes(_materialized(table))
    return view_bytes.decode("utf-8")


@pytest.mark.parametrize("seed", range(120))
def test_join_view_csv_matches_materialized_rows_propgen(seed):
    case = Case(seed)
    flat = engine.flatten_naive(case.bound, case.binding, engine.Derivations(case.bound, CLOCK))
    assert isinstance(flat.table.rows, JoinRows)
    _check_view(flat.table)


@pytest.mark.parametrize("seed", range(20))
def test_join_view_csv_matches_materialized_rows_random(seed):
    rng = random.Random(seed)
    blocks = []
    for width in [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]:
        size = rng.randint(1, 5)
        columns = [_random_cells(rng, rng.choice(list(POOLS)), size) for _ in range(width)]
        blocks.append(list(zip(*columns)) if width else [()] * size)
    n = rng.randint(0, 30)
    index = [[rng.randrange(len(block)) for _ in range(n)] for block in blocks]
    if not any(len(block[0]) for block in blocks):
        blocks[0] = [("x",)] * len(blocks[0])
    _check_view(_join_table(blocks, index))


def test_join_view_child_cell_with_newline_comma_and_quote():
    text = _check_view(_join_table([[("c1",), ("c2",)], [('a,"b"\nc', 1.5), ("plain", None)]],
                                   [[0, 0, 1], [0, 1, 0]]))
    assert text == 'c0,c1,c2\nc1,"a,""b""\nc",1.5\nc1,plain,\nc2,"a,""b""\nc",1.5\n'


def test_join_view_one_column_block_with_null_cell():
    # csv writes a row's lone empty field as "", but inside a wider row it is bare
    text = _check_view(_join_table([[("c1",), ("c2",)], [(None,), ("",), ("v",)]],
                                   [[0, 1, 1], [0, 1, 2]]))
    assert text == "c0,c1\nc1,\nc2,\nc2,v\n"
    assert _check_view(_join_table([[(None,), ("a",)]], [[0, 1]])) == 'c0\n""\na\n'


def test_join_view_block_without_columns():
    text = _check_view(_join_table([[("c1", 1)], [(), ()], [("x",), (None,)]],
                                   [[0, 0], [1, 0], [1, 0]]))
    assert text == "c0,c1,c2\nc1,1,\nc1,1,x\n"


def test_join_view_absent_partners_on_two_levels(tmp_path):
    # c2 has no ORDER, so its ORDER and LINE blocks are both the absent row;
    # o2 has no LINE
    schema = parse_full("""
entity CUSTOMER { key cust_id: identifier attr ltv: numeric }
entity ORDER { key order_id: identifier attr note: text }
entity LINE { key line_id: identifier attr qty: numeric }
relationship PLACES { CUSTOMER (0,1) -- (0,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
task T { target CUSTOMER.ltv }
""")
    data = {"CUSTOMER": "cust_id,ltv\nc1,10\nc2,\n",
            "ORDER": 'order_id,cust_id,note\no1,c1,"x, ""y""\nz"\no2,c1,\n',
            "LINE": "line_id,order_id,qty\nl1,o1,3\n"}
    for name, text in data.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle, CLOCK)
    binding = eer.resolve_target(schema, schema.task("T"))
    flat = engine.flatten_naive(bound, binding, engine.Derivations(bound, CLOCK))
    assert _check_view(flat.table) == (
        "CUSTOMER_cust_id,CUSTOMER_ltv,ORDER_order_id,ORDER_note,ORDER_cust_id,"
        "LINE_line_id,LINE_qty,LINE_order_id\n"
        'c1,10,o1,"x, ""y""\nz",c1,l1,3,o1\n'
        "c1,10,o2,,c1,,,\n"
        "c2,,,,,,,\n")
    # the null target and the absent partners' cells all read unknown
    assert flat.table.rows[2] == ["c2"] + [UNKNOWN] * 7
