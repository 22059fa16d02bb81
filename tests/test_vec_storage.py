"""Typed column storage: every column is one ``values.Vec`` (typed values and
an int8 null code per row) from ``read_csv`` to the CSV writer.

``read_csv`` gives each kind its dtype and reads an empty field as unknown;
``Table.rows`` boxes the cells back to the Python objects the list storage
held; the writer prints each kind as ``values.format_cell`` prints the boxed
cell; and the steps that gather rows (the subtype split, the one-to-one
join's absent partner, emit's key order) carry each row's null code along.
"""

import csv
import datetime as dt
import hashlib
import io
import json
import random

import numpy as np
import pytest

from cmml import binder, dsl, eer, engine, planner
from cmml.tabular import Column, Table, read_csv, table_to_csv_bytes
from cmml.values import NOT_APPLICABLE, UNKNOWN, Vec, box, format_cell
from conftest import CLOCK, parse_full
from test_golden import CASES

KINDS = {"identifier": object, "nominal": object, "text": object, "numeric": np.float64,
         "boolean": np.bool_, "date": np.int64}


def test_read_csv_gives_each_kind_its_dtype_and_unknown_for_an_empty_field(tmp_path):
    path = tmp_path / "T.csv"
    path.write_text("identifier,nominal,text,numeric,boolean,date\n"
                    'a,x,"say ""hi""",-0,true,2019-01-02\n'
                    ",,,,,\n"
                    "c,y,plain,1e16,false,0001-01-01\n", encoding="utf-8")
    table, rep = read_csv(path, "T", [Column(k, k) for k in KINDS])
    assert rep.ok, rep.render()
    for name, dtype in KINDS.items():
        vec = table.cells[table.column_index(name)]
        assert vec.values.dtype == dtype, name
        assert vec.null.dtype == np.int8 and vec.null.tolist() == [0, 1, 0], name
    numeric = table.cells[table.column_index("numeric")]
    assert np.isnan(numeric.values[1])  # a numeric null's filler is nan
    assert repr(numeric.values[0].item()) == "-0.0"
    assert table.cells[table.column_index("date")].values.tolist() == [
        dt.date(2019, 1, 2).toordinal(), 1, 1]
    assert table.rows[1] == [UNKNOWN] * 6


def _typed_rows(table) -> list:
    """Each row's cells as (type name, repr) pairs: what the list storage
    held, exactly."""
    return [[(type(v).__name__, repr(v)) for v in row] for row in table.rows]


def _record(build, tmp_path) -> str:
    """The boxed cells of every bound table and every emitted dataset of a
    golden case."""
    data = tmp_path / "data"
    data.mkdir()
    schema_path, data_dir, task_name = build(data)
    schema = eer.rewrite_many_to_many(dsl.parse_schema_file(str(schema_path))[0])
    bundle, rep = binder.load_bundle(schema, data_dir)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle, CLOCK)
    task = schema.task(task_name)
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    datasets, _ = engine.execute(plan, bound, engine.Derivations(bound, CLOCK))
    tables = {**{f"bound/{n}": t for n, t in bound.bundle.tables.items()},
              **{f"dataset/{ds.name}": ds.table for ds in datasets}}
    return json.dumps({name: _typed_rows(t) for name, t in sorted(tables.items())})


# Taken from the list storage: each golden case's bound tables and emitted
# datasets, cell by cell, as type name and repr
BOXED_DIGESTS = {
    "chain": "8d0130f02d84841aaf9b3b6f6d446226e42f75bc1fe786f014a5b2cffffafbd3",
    "collision": "40971d08632c3cab4a980dad052bc1e38d0c76271cfa2ded498989cfd48caf4f",
    "example": "a99eeab77a2c160cbfbf6854bcf047739220a6c865c2932a5b146ab3915b90b5",
    "from_table": "773fa94caa6be5c57357d96f584db936829adcc49237ced771a5c866e14c72db",
    "n_side_target": "52459297640ea5aa45f0297b4f18cd3010e7681fab84200f3914c9cc5c24d21c",
    "propgen_1": "8692b9b4d4ff1ecd8b407281581c235fbfdb45d21ffe70dd59684dcf9e455e87",
    "propgen_12": "e6d77261202275ffbbf6d1c557066a18fbae8337116d86c43135da85e3cf5286",
    "propgen_36": "48df07d552f4b5f9bbe30914943d3f98b06386f7c7170ee1ecb093e709c327e6",
    "propgen_5": "4c57db16b15837ac516e98244d11d8f8582ab55a00948add20cd9f9a8fadab3f",
    "skipped_edge": "ef50f6b8d2fe612fd99ca352e6c36066b94253fc747cc2c55733092003c7a74d",
    "synth_1": "8b482cbc42bf6f5cd536cbb7955af859b247d18e93416a8526a57f522b74e7d4",
    "synth_2": "ca5bb1b4c6e5af840e0811d3be4dabd463cf1c7542a7722465482dcf2db496c8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_box_the_cells_as_the_list_storage_held_them(name, tmp_path):
    digest = hashlib.sha256(_record(CASES[name], tmp_path).encode("utf-8")).hexdigest()
    assert digest == BOXED_DIGESTS[name]


# Boxed cells of each kind; the nulls are added to every pool
POOLS = {
    "numeric": [0.0, -0.0, 1.5, -3.0, 48.0, 1e15 - 1, 1e15, -1e15, 1e15 + 2, 1e16, -1e16, 2.5e-7,
                1e300, 0.1 + 0.2, 999999999999999.5],
    "boolean": [True, False],
    "date": [dt.date(2019, 4, 21), dt.date(1, 1, 1), dt.date(9999, 12, 31), dt.date(2000, 2, 29)],
    "text": ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " padded ", "café", "",
             "'quote'"],
}
POOLS["identifier"] = POOLS["nominal"] = POOLS["text"]
FILLERS = {"numeric": np.nan, "boolean": True, "date": 738000}  # else a string


def _random_vec(rng, kind, n) -> Vec:
    """A column of random cells and codes, built as a Vec directly; a null
    row's value is a filler the writer must not read."""
    null = np.array([rng.choice((0, 0, 0, 1, 2)) for _ in range(n)], dtype=np.int8)
    cells = [rng.choice(POOLS[kind]) for _ in range(n)]
    values = [FILLERS.get(kind, "filler") if c else
              v.toordinal() if kind == "date" else v for v, c in zip(cells, null.tolist())]
    return Vec(np.array(values, dtype=KINDS[kind]).reshape(n), null)


def _reference_bytes(table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("seed", range(30))
def test_writer_text_of_every_kind_is_format_cell_of_the_boxed_cell(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 60)
    kinds = [rng.choice(sorted(KINDS)) for _ in range(rng.randint(1, 7))]
    table = Table("T", [Column(f"c{j}", kind) for j, kind in enumerate(kinds)],
                  cells=[_random_vec(rng, kind, n) for kind in kinds])
    assert table_to_csv_bytes(table) == _reference_bytes(table)


def test_writer_covers_the_edges_of_format_float():
    cells = POOLS["numeric"]
    table = Table("T", [Column("x", "numeric")], [[v] for v in cells + [UNKNOWN, NOT_APPLICABLE]])
    assert table_to_csv_bytes(table).decode("utf-8").split("\n")[1:-1] == [
        "0", "0", "1.5", "-3", "48", "999999999999999", "1000000000000000.0",
        "-1000000000000000.0", "1000000000000002.0", "1e+16", "-1e+16", "2.5e-07", "1e+300",
        "0.30000000000000004", "999999999999999.5", '""', '""']


# ---------------------------------------------------------------------------
# Gathers keep each row's code

GATHER_SCHEMA = """
entity E { key id: identifier attr t: numeric attr size: numeric attr note: text }
entity OPT { key oid: identifier attr v: numeric }
entity MAN { key mid: identifier attr w: numeric }
relationship HAS_OPT { E (1,1) -- (0,1) OPT via id }
relationship HAS_MAN { E (1,1) -- (1,1) MAN via id }
generalization G of E disjoint {
  subtype SMALL when (size < 10) { attr s_only: numeric }
  subtype BIG when (size >= 10) { attr b_only: numeric }
}
task T { target E.t split_by G impute none }
"""
# rows out of key order; e2 and e5 have no OPT and no MAN partner
GATHER_DATA = {
    "E": "id,t,size,note,s_only,b_only\ne4,4,20,,,9\ne2,2,1,two,,\ne5,5,30,five,,\n"
         "e1,1,2,,7,\ne3,3,3,three,8,\n",
    "OPT": "oid,v,id\no1,,e1\no3,30,e3\no4,40,e4\n",
    "MAN": "mid,w,id\nm1,1,e1\nm3,,e3\nm4,4,e4\n",
}


def test_split_join_and_emit_keep_each_rows_code(tmp_path):
    schema = parse_full(GATHER_SCHEMA)
    for name, text in GATHER_DATA.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle, CLOCK)
    assert bound.ok, bound.report.render()
    task = schema.task("T")
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    datasets, _ = engine.execute(plan, bound, engine.Derivations(bound, CLOCK))
    by_name = {ds.name: ds.table for ds in datasets}

    def codes(table, column):
        return table.cells[table.column_index(column)].null.tolist()

    small, big = by_name["T_SMALL"], by_name["T_BIG"]
    # emit puts the rows in key order, each with its own cells and codes
    assert box(small.cells[0]) == ["e1", "e2", "e3"] and box(big.cells[0]) == ["e4", "e5"]
    assert codes(small, "E_note") == [1, 0, 0] and codes(big, "E_note") == [1, 0]
    # a subtype's attribute is not applicable on the other subtype's rows of
    # the bound table, unknown where missing on a member
    assert codes(bound.bundle.table("E"), "s_only") == [2, 1, 2, 0, 0]
    assert codes(small, "SMALL_s_only") == [0, 1, 0] and codes(big, "BIG_b_only") == [0, 1]
    # an absent partner is not applicable under optional participation, unknown
    # under mandatory; a partner's own null keeps its unknown code
    assert codes(small, "OPT_v") == [1, 2, 0] and codes(big, "OPT_v") == [0, 2]
    assert codes(small, "MAN_w") == [0, 1, 1] and codes(big, "MAN_w") == [0, 1]
    assert box(small.cells[small.column_index("OPT_v")]) == [UNKNOWN, NOT_APPLICABLE, 30.0]
    # the split dropped the sibling subtype's column
    assert "BIG_b_only" not in small.column_names and "SMALL_s_only" not in big.column_names
