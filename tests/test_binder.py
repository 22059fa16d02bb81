import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from cmml import binder, cli, dsl, eer
from cmml.tabular import table_to_csv_bytes
from cmml.values import NOT_APPLICABLE, UNKNOWN
from conftest import column, parse, parse_full
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
    parent_row = example_bound.parent_rows["PLACES"].tolist()
    keys = column(example_bound.bundle.table("CUSTOMER"), "cust_id")
    fk = column(example_bound.bundle.table("ORDER"), "cust_id")
    assert len(parent_row) == len(fk)
    # each order's customer: the row holding its key
    assert [keys[p] for p in parent_row] == fk
    assert {k: parent_row.count(p) for p, k in enumerate(keys) if p in parent_row} == {
        "101": 4, "400": 1, "223": 2, "398": 1}


def test_bind_refuses_an_unvalidated_schema(tmp_path):
    # R's child B is declared nowhere; binding used to crash on its table
    schema = parse("""
    entity A { key a_id: identifier attr x: numeric }
    relationship R { A (1,1) -- (0,N) B via a_id }
    """)
    (tmp_path / "A.csv").write_text("a_id,x\na1,1\n", encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle)
    assert not bound.ok
    assert bound.report.to_dicts() == eer.validate_schema(schema).to_dicts()
    assert [(d.code, d.location) for d in bound.report.errors] == [("unknown-entity", "R")]
    assert bound.parent_rows == {} and bound.subtype_rows == {}
    assert binder.cardinality_report(bound) == []


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


def test_cardinality_report_skips_a_null_parent_key(tmp_path):
    # a null key is no parent (a null-key error): it has no partners to count
    # and no violation to report, as the partner warnings already treat it
    bound = _bind(PARENT_CHILD, {
        "P": "pid,t\np1,1\n,2\n",
        "C": "cid,v,pid\nc1,1,p1\n",
    }, tmp_path)
    assert [d.code for d in bound.report.errors] == ["null-key"]
    r = next(c for c in binder.cardinality_report(bound) if c.relationship == "R")
    assert (r.conformant, r.violations, r.observed_min, r.observed_max) == (True, [], 1, 1)


@pytest.mark.parametrize("ends,codes", [
    # each EMP has at most one boss; a boss has any number of EMPs
    ("EMP (0,1) -- (0,N) EMP", []),
    # the same with the ends swapped, and every EMP must have a boss
    ("EMP (0,N) -- (1,1) EMP", [("mandatory-participation", "EMP:1")]),
])
def test_self_relationship_ends_are_picked_by_position(ends, codes, tmp_path):
    # e1 manages two EMPs and has no boss itself
    bound = _bind(f"""
    entity EMP {{ key emp_id: identifier attr salary: numeric }}
    relationship MANAGES {{ {ends} via boss }}
    """, {"EMP": "emp_id,salary,boss\ne1,10,\ne2,5,e1\ne3,6,e1\n"}, tmp_path)
    assert [(d.code, d.location) for d in bound.report.diagnostics] == codes
    [card] = binder.cardinality_report(bound)
    assert (card.declared_min, card.declared_max, card.observed_min, card.observed_max,
            card.conformant) == (0, "N", 0, 2, True)


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
    rows = bound.subtype_rows["G"]
    assert rows["SMALL"].tolist() == [0, -1]
    assert rows["BIG"].tolist() == [-1, 1]


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
    assert {n: v.tolist() for n, v in bound.subtype_rows["G"].items()} == {"A": [0], "B": [0]}


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
    # each member's row in its subtype's own table
    assert {n: v.tolist() for n, v in bound.subtype_rows["G"].items()} == {
        "S": [0, -1], "R": [-1, 0]}


@pytest.mark.parametrize("gold,code", [("id,perk\na,5\na,99\n", "duplicate-key"),
                                       ("id,perk\na,5\n,7\n", "null-key")])
def test_membership_table_keys_are_checked(gold, code, tmp_path, capsys):
    # a duplicated member key used to drop a row's attributes silently, and
    # a null one was reported as a dangling member
    schema = """
        entity ACCOUNT { key id: identifier attr t: numeric }
        generalization TIER of ACCOUNT overlap {
          subtype GOLD from table { attr perk: numeric }
          subtype TRIAL from table { attr days_left: numeric }
        }
        task T { target ACCOUNT.t split_by TIER }
    """
    (tmp_path / "s.cmml").write_text(schema, encoding="utf-8")
    for name, text in {"ACCOUNT": "id,t\na,1\nb,2\n", "GOLD": gold,
                       "TRIAL": "id,days_left\nb,3\n"}.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--schema", str(tmp_path / "s.cmml"),
                     "--data-dir", str(tmp_path), "--json"]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["code"], d["location"]) for d in diags if d["severity"] == "error"] == [
        (code, "GOLD:2")]


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
# were taken from that binder on the same inputs, then moved once when the
# record went from the key -> subtypes memberships to the subtype row vectors
# that replaced them.

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

# Subtype faults: a duplicated and a null supertype key whose rows share one
# membership, a disjointness violation, null membership verdicts, uncovered
# instances, a dangling member, and subtype-owned columns null on non-members.
FAULTS = """
entity E {
  key id: identifier
  attr t: numeric
  attr size: numeric
}
entity C { key cid: identifier attr v: numeric }
relationship R { E (1,1) -- (1,N) C via id }
generalization G of E disjoint {
  subtype SMALL when (size < 10) { attr s_only: numeric }
  subtype MID when (size < 20) { attr m_only: numeric }
  subtype GOLD from table { attr perk: numeric }
}
generalization H of E overlap {
  subtype LOW when (t < 4)
  subtype HIGH when (t >= 3)
}
"""
FAULTS_DATA = {
    "E": ("id,t,size,s_only,m_only\na,1,5,7,\nb,2,,,\na,3,30,,\n,4,5,,1\n,,50,,\n"
          "c,6,40,,\nd,7,25,,\n"),
    "C": "cid,v,id\nc1,1,a\nc2,2,d\nc3,3,zz\n",
    "GOLD": "id,perk\nd,1\nzz,2\na,3\n",
}
INLINE = {"noisy": (NOISY, NOISY_DATA), "faults": (FAULTS, FAULTS_DATA)}

BIND_DIGESTS = {
    "from_table": "bcc0520558f554feac546c0b591ec7311c72434b99f49a0a28c26c16afb2f00e",
    "n_side_target": "0c0500d46869e0a27a9984cc521f707e47b4b0b271e59bb45cc21291af2bf189",
    "propgen_5": "7a44fbe05bc48a6f882045a7c1e957a4aebd3330f3a6a64afa0e0f7919a8b918",
    "noisy": "90593f01d8061a9aca443e838b70dc7f2784e6d176c43e90b4940def9599ce76",
    "faults": "50f47680b353205187fe28e501444cf26de1444cb385f55d069cc071ffefe33e",
}


def _partner_record(bound, rel_name: str) -> list:
    """Each parent row's child rows in child row order, and their counts:
    the partner index that the digests were recorded from."""
    parent_row = bound.parent_rows[rel_name]
    matched = np.flatnonzero(parent_row >= 0)
    parent = bound.bundle.table(bound.schema.relationship(rel_name).parent_entity())
    rows = matched[np.argsort(parent_row[matched], kind="stable")]
    return [rows.tolist(), np.bincount(parent_row[matched], minlength=parent.row_count).tolist()]


def _bind_record(bound) -> str:
    return json.dumps({
        "diagnostics": bound.report.to_dicts(),
        "tables": {n: [[repr(v) for v in row] for row in t.rows]
                   for n, t in sorted(bound.bundle.tables.items())},
        "partners": {r: _partner_record(bound, r) for r in sorted(bound.parent_rows)},
        "membership": {g: {n: v.tolist() for n, v in rows.items()}
                       for g, rows in sorted(bound.subtype_rows.items())},
    })


@pytest.mark.parametrize("name", sorted(BIND_DIGESTS))
def test_bind_equals_row_at_a_time_binder(name, tmp_path):
    if name in INLINE:
        schema_text, data = INLINE[name]
        schema = parse_full(schema_text)
        for table, text in data.items():
            (tmp_path / f"{table}.csv").write_text(text, encoding="utf-8")
        data_dir = tmp_path
    else:
        schema_path, data_dir, _ = CASES[name](tmp_path)
        schema = eer.rewrite_many_to_many(dsl.parse_schema_file(str(schema_path))[0])
    bundle, rep = binder.load_bundle(schema, data_dir)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle, dt.date(2019, 6, 1))
    assert hashlib.sha256(_bind_record(bound).encode()).hexdigest() == BIND_DIGESTS[name]


def test_null_parent_key_is_no_parent_and_zero_partner_warnings_are_located(tmp_path):
    schema = parse_full(NOISY)
    for table, text in NOISY_DATA.items():
        (tmp_path / f"{table}.csv").write_text(text, encoding="utf-8")
    bundle, _ = binder.load_bundle(schema, tmp_path)
    diags = binder.bind(schema, bundle, dt.date(2019, 6, 1)).report.to_dicts()
    assert {"severity": "error", "code": "null-key",
            "message": "E: row 6 has a null key cell", "location": "E:6"} in diags
    zero = [(d["message"], d["location"]) for d in diags if "zero C partners" in d["message"]]
    # row 6's null key made the warning "E None has zero C partners" before
    assert zero == [(f"E {k!r} has zero C partners under mandatory participation in R", loc)
                    for k, loc in (("b", "E:3"), ("d", "E:7"), ("e", "E:2"))]


def test_report_to_dicts_keeps_the_dataclass_fields_in_order(tmp_path):
    # validate --json and BIND_DIGESTS print these objects; they were dataclasses.asdict's
    from dataclasses import asdict

    schema = parse_full(NOISY)
    for table, text in NOISY_DATA.items():
        (tmp_path / f"{table}.csv").write_text(text, encoding="utf-8")
    bundle, _ = binder.load_bundle(schema, tmp_path)
    report = binder.bind(schema, bundle, dt.date(2019, 6, 1)).report
    report.notice("n", "no location")
    dicts = report.to_dicts()
    assert [list(d.items()) for d in dicts] == [list(asdict(d).items())
                                               for d in report.diagnostics]
    assert len(dicts) > 10 and dicts[-1]["location"] is None


def test_validate_json_on_subtype_faults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    for table, text in FAULTS_DATA.items():
        (tmp_path / f"{table}.csv").write_text(text, encoding="utf-8")
    (tmp_path / "s.cmml").write_text(FAULTS, encoding="utf-8")
    rc = cli.main(["validate", "--schema", str(tmp_path / "s.cmml"),
                   "--data-dir", str(tmp_path), "--json"])
    out = capsys.readouterr().out
    codes = {d["code"] for d in json.loads(out)["diagnostics"]}
    assert {"duplicate-key", "null-key", "disjointness", "membership-null",
            "uncovered-instances", "dangling-member"} <= codes
    # the two null-key rows are no parent, so no cardinality violation names them
    assert "Null(unknown)" not in out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (1, "c38fe4b07dd9dc07f43e955b6b6a3ed8c778cede94800000ddc5f7985dd683c3")
