import datetime as dt
import hashlib
import json

import pytest

from cmml import binder, dsl, eer
from cmml.tabular import table_to_csv_bytes
from cmml.values import NOT_APPLICABLE, UNKNOWN
from conftest import parse_full
from test_golden import CASES


def _bind(schema_text: str, tables: dict[str, str], tmp_path):
    schema = parse_full(schema_text)
    for name, text in tables.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    return binder.bind(schema, bundle)


PARENT_CHILD = """
entity P { key pid: identifier attr t: numeric }
entity C { key cid: identifier attr v: numeric }
relationship R { P (1,1) -- (1,N) C via pid }
task T { target P.t }
"""


def test_bind_example(example_bound):
    assert example_bound.ok
    idx = example_bound.children_of["PLACES"]
    assert {k: len(v) for k, v in idx.items()} == {
        "101": 4, "400": 1, "223": 2, "398": 1}


def test_missing_table_is_error(tmp_path):
    bound_schema = parse_full(PARENT_CHILD)
    _, rep = binder.load_bundle(bound_schema, tmp_path)
    assert not rep.ok


def test_dangling_fk_is_error(tmp_path):
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\np1,1\n",
        "C": "cid,v,pid\nc1,1,NOPE\n",
    }, tmp_path)
    assert not bound.ok
    assert any("NOPE" in d.message for d in bound.report.errors)


def test_duplicate_key_is_error(tmp_path):
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\np1,1\np1,2\n",
        "C": "cid,v,pid\nc1,1,p1\n",
    }, tmp_path)
    assert not bound.ok


def test_null_key_is_error(tmp_path):
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\n,1\n",
        "C": "cid,v,pid\nc1,1,p1\n",
    }, tmp_path)
    assert not bound.ok


def test_mandatory_participation_violation_is_warning(tmp_path):
    # P (1,N) side: every P must have at least one C; p2 has none
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\np1,1\np2,2\n",
        "C": "cid,v,pid\nc1,1,p1\n",
    }, tmp_path)
    assert bound.ok  # warning, not error
    assert any("p2" in d.message or "R" in d.message
               for d in bound.report.warnings)


def test_cardinality_report(example_bound):
    cards = binder.cardinality_report(example_bound)
    places = next(c for c in cards if c.relationship == "PLACES")
    assert (places.declared_min, places.declared_max) == (1, "N")
    assert (places.observed_min, places.observed_max) == (1, 4)
    assert places.conformant


def test_cardinality_report_flags_violation(tmp_path):
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\np1,1\np2,2\n",
        "C": "cid,v,pid\nc1,1,p1\n",
    }, tmp_path)
    rep = binder.cardinality_report(bound)
    r = next(c for c in rep if c.relationship == "R")
    assert not r.conformant and len(r.violations) == 1 and r.observed_min == 0


SUBTYPED = """
entity E {
  key id: identifier
  attr t: numeric
  attr size: numeric
  attr employed: boolean
  attr salary: numeric applicable_when (employed = true)
}
generalization G of E disjoint {
  subtype SMALL when (size < 10) { attr s_only: numeric }
  subtype BIG when (size >= 10) { attr b_only: numeric }
}
task T { target E.t }
"""


def test_subtype_membership_by_predicate(tmp_path):
    bound = _bind(SUBTYPED, {
        "E": ("id,t,size,employed,salary,s_only,b_only\n"
              "a,1,5,true,100,7,\n"
              "b,2,20,false,,,9\n"),
    }, tmp_path)
    assert bound.ok, bound.report.render()
    m = bound.subtype_membership["G"]
    assert m[("a",)] == {"SMALL"}
    assert m[("b",)] == {"BIG"}


def test_null_classification_priority(tmp_path):
    bound = _bind(SUBTYPED, {
        "E": ("id,t,size,employed,salary,s_only,b_only\n"
              "a,1,5,true,,7,\n"     # salary: applicable but missing -> unknown
              "b,2,20,false,,,\n"    # salary: predicate false -> not_applicable
              "c,3,5,,,,\n"),        # employed null -> predicate null -> unknown
    }, tmp_path)
    assert bound.ok, bound.report.render()
    table = bound.bundle.table("E")
    rows = {r[0]: dict(zip(table.column_names, r)) for r in table.rows}
    assert rows["a"]["salary"] is UNKNOWN
    assert rows["b"]["salary"] is NOT_APPLICABLE
    assert rows["c"]["salary"] is UNKNOWN
    # sibling-subtype columns are not applicable to non-members
    assert rows["a"]["b_only"] is NOT_APPLICABLE
    assert rows["b"]["s_only"] is NOT_APPLICABLE
    # plain missing value with no predicate in play -> unknown
    assert rows["c"]["employed"] is UNKNOWN


def test_null_predicate_produces_diagnostic(tmp_path):
    bound = _bind(SUBTYPED, {
        "E": ("id,t,size,employed,salary,s_only,b_only\n"
              "c,3,5,,,,\n"),
    }, tmp_path)
    assert any("employed" in d.message or "salary" in d.message
               for d in bound.report.diagnostics)


def test_disjointness_violation_is_error(tmp_path):
    text = """
        entity E { key id: identifier attr t: numeric attr size: numeric }
        generalization G of E disjoint {
          subtype A when (size < 10)
          subtype B when (size < 20)
        }
        task T { target E.t }
    """
    bound = _bind(text, {"E": "id,t,size\nx,1,5\n"}, tmp_path)
    assert not bound.ok


def test_overlap_allows_multi_membership(tmp_path):
    text = """
        entity E { key id: identifier attr t: numeric attr size: numeric }
        generalization G of E overlap {
          subtype A when (size < 10)
          subtype B when (size < 20)
        }
        task T { target E.t }
    """
    bound = _bind(text, {"E": "id,t,size\nx,1,5\n"}, tmp_path)
    assert bound.ok, bound.report.render()
    assert bound.subtype_membership["G"][("x",)] == {"A", "B"}


def test_from_table_subtype_membership(tmp_path):
    text = """
        entity E { key id: identifier attr t: numeric }
        generalization G of E overlap {
          subtype S from table { attr extra: numeric }
          subtype R from table { attr other: numeric }
        }
        task T { target E.t }
    """
    bound = _bind(text, {
        "E": "id,t\na,1\nb,2\n",
        "S": "id,extra\na,42\n",
        "R": "id,other\nb,7\n",
    }, tmp_path)
    assert bound.ok, bound.report.render()
    assert bound.subtype_membership["G"] == {("a",): {"S"}, ("b",): {"R"}}


def test_bind_tags_every_null_cell_in_place(tmp_path):
    text = SUBTYPED.replace("task T", """
        generalization H of E overlap {
          subtype S from table { attr extra: numeric attr note: text }
          subtype R from table { attr other: numeric }
        }
        task T""")
    tables = {
        "E": ("id,t,size,employed,salary,s_only,b_only\n"
              "a,1,5,true,,7,\n"
              "b,,20,false,,,\n"
              "c,3,5,,,,\n"),
        "S": "id,extra,note\na,,hi\nc,4,\n",
        "R": "id,other\nb,\n",
    }
    schema = parse_full(text)
    for name, csv_text in tables.items():
        (tmp_path / f"{name}.csv").write_text(csv_text, encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    before = {name: table_to_csv_bytes(t) for name, t in bundle.tables.items()}
    bound = binder.bind(schema, bundle)
    assert bound.ok, bound.report.render()
    assert set(bound.bundle.tables) == {"E", "S", "R"}
    for name, table in bound.bundle.tables.items():
        assert not any(v is None for row in table.rows for v in row), name
        assert table_to_csv_bytes(table) == before[name]
    assert bound.bundle.table("S").rows == [["a", UNKNOWN, "hi"], ["c", 4.0, UNKNOWN]]
    assert bound.bundle.table("R").rows == [["b", UNKNOWN]]


# ---------------------------------------------------------------------------
# Column-at-a-time binding: diagnostics, tags, the relationship index and the
# memberships equal those of the row-at-a-time binder it replaced. The digests
# were taken from that binder on the same inputs.

NOISY = """
entity E {
  key id: identifier
  attr t: numeric
  attr size: numeric
  attr employed: boolean
  attr salary: numeric applicable_when (employed = true)
  attr bonus: numeric applicable_when (size > 3)
}
generalization G of E overlap {
  subtype SMALL when (size < 10) { attr s_only: numeric }
  subtype BIG when (size >= 5) { attr b_only: numeric }
}
entity C { key cid: identifier attr v: numeric }
relationship R { E (1,1) -- (1,N) C via id }
task T { target E.t }
"""
# null applicability in two columns of one row, null memberships, a
# duplicate and a null key, null and dangling foreign keys between each other
NOISY_DATA = {
    "E": ("id,t,size,employed,salary,bonus,s_only,b_only\na,1,5,,,,7,\ne,6,,,,,,\n"
          "b,2,,true,,,,\nc,3,20,,,,,9\na,4,1,false,,,,\n,5,2,,1,,,\nd,,30,true,,,,\n"),
    "C": "cid,v,id\nc1,1,a\nc2,2,\nc3,3,zz\nc4,4,c\nc5,,\nc6,,yy\n",
}

BIND_DIGESTS = {
    "from_table": "ecd941641df055a03becc4839dda052b77678060356f16ff43cc09e0068ef26b",
    "n_side_target": "79feb9c9d3900fa03d5ecb32c11b0bcf6966035ba04c1240218da673e1191b4c",
    "propgen_5": "b00e0dadf4b57292fbb46f210e7af873330ae706836ba1508e1fb271478f49e9",
    "noisy": "fddfb6e1d22a4369722b577fa26140e1d6d673e8006f509f312b4845d1e8b16a",
}


def _bind_record(bound) -> str:
    return json.dumps({
        "diagnostics": bound.report.to_dicts(),
        "tables": {n: [[repr(v) for v in row] for row in t.rows]
                   for n, t in sorted(bound.bundle.tables.items())},
        "children_of": {r: {repr(k): v for k, v in c.items()}
                        for r, c in sorted(bound.children_of.items())},
        "membership": {n: {repr(k): sorted(v) for k, v in m.items()}
                       for n, m in sorted(bound.subtype_membership.items())},
    })


@pytest.mark.parametrize("name", sorted(BIND_DIGESTS))
def test_bind_equals_row_at_a_time_binder(name, tmp_path):
    if name == "noisy":
        schema = parse_full(NOISY)
        for table, text in NOISY_DATA.items():
            (tmp_path / f"{table}.csv").write_text(text, encoding="utf-8")
        data_dir = tmp_path
    else:
        schema_path, data_dir, _ = CASES[name](tmp_path)
        schema = eer.rewrite_many_to_many(dsl.parse_schema_file(str(schema_path))[0])
    bundle, rep = binder.load_bundle(schema, data_dir)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle, dt.date(2019, 6, 1))
    assert hashlib.sha256(_bind_record(bound).encode()).hexdigest() == BIND_DIGESTS[name]
