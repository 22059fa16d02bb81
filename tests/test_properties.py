"""Randomized property suites over generated schema/data cases."""

import csv
import json
import random
import re

import pytest

from cmml import binder, cli, dsl, eer, engine, planner
from cmml.values import NOT_APPLICABLE, UNKNOWN, is_null
from conftest import CLOCK, EXAMPLE_SCHEMA, parse_full
from propgen import Case
from test_golden import (CASES, CHAIN_SCHEMA, CONSUMED_KEY_DATA, CONSUMED_KEY_SCHEMA, N_SIDE_DATA,
                         _inline)

N_CASES = 120
SEEDS = range(N_CASES)


def _execute(case, impute=None):
    task = case.schema.task("T")
    overrides = {"impute": impute} if impute else {}
    options = planner.PlanOptions.from_task(task, **overrides)
    plan = planner.compile_plan(case.bound.schema, task, options)
    datasets, manifest = engine.prepare(plan, case.bound, engine.Derivations(case.bound, CLOCK))
    return datasets, manifest


@pytest.mark.parametrize("seed", SEEDS)
def test_row_counts_and_split_semantics(seed):
    case = Case(seed)
    assert case.bound.ok, case.bound.report.render()
    datasets, manifest = _execute(case)
    with_target = case.keys_with_target()

    if case.gen_mode is None:
        assert len(datasets) == 1
        assert len(datasets[0].table.rows) == len(with_target)
    else:
        by_name = {d.name: d for d in datasets}
        assert set(by_name) == {"T_LOW", "T_HIGH"}
        key_sets = {}
        for st in ("LOW", "HIGH"):
            ds = by_name[f"T_{st}"]
            keys = {r[0] for r in ds.table.rows}
            expected = case.member_keys(st) & with_target
            assert keys == expected, f"subtype {st} keys"
            assert len(ds.table.rows) == len(expected)
            key_sets[st] = keys
            # sibling subtype's specific column never leaks in
            sibling_attr = "high_x" if st == "LOW" else "low_x"
            assert not any(sibling_attr in c for c in ds.table.column_names)
        if case.gen_mode == "disjoint":
            assert not (key_sets["LOW"] & key_sets["HIGH"])
            assert key_sets["LOW"] | key_sets["HIGH"] == with_target
        else:
            multi = (case.member_keys("LOW") & case.member_keys("HIGH")
                     & with_target)
            assert multi <= key_sets["LOW"] and multi <= key_sets["HIGH"]

    # DS0 brute-force join oracle
    flat = engine.flatten_naive(case.bound, case.binding, engine.Derivations(case.bound, CLOCK))
    assert len(flat.table.rows) == case.ds0_row_count()


@pytest.mark.parametrize("seed", SEEDS)
def test_imputation_never_touches_not_applicable(seed):
    case = Case(seed)
    raw_sets, _ = _execute(case, impute="none")
    imp_sets, _ = _execute(case, impute="mean_mode")
    for raw, imp in zip(raw_sets, imp_sets):
        assert raw.table.column_names == imp.table.column_names
        assert len(raw.table.rows) == len(imp.table.rows)
        for r_row, i_row in zip(raw.table.rows, imp.table.rows):
            for r_cell, i_cell in zip(r_row, i_row):
                if r_cell == NOT_APPLICABLE:
                    assert i_cell == NOT_APPLICABLE
                elif r_cell != UNKNOWN:
                    assert i_cell == r_cell  # only unknown cells may change


def test_manifest_table_sha256_is_null_for_in_memory_tables():
    # a propgen bundle is built in memory, so no file bytes pin its tables
    case = Case(5)
    _, manifest = _execute(case)
    assert manifest["table_sha256"] == dict.fromkeys(sorted(case.bundle.tables))
    assert '"ROOT": null' in json.dumps(manifest)


_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@pytest.mark.parametrize("seed", SEEDS)
def test_manifest_completeness_and_naming(seed):
    case = Case(seed)
    datasets, manifest = _execute(case)
    predictor_entities = set(case.binding.predictor_entities) | {"LOW", "HIGH"}
    for ds in datasets:
        feats = manifest["datasets"][ds.name]["features"]
        names = [f["name"] for f in feats]
        # exactly one lineage record per output column
        assert names == ds.table.column_names
        assert len(set(names)) == len(names)
        for f in feats:
            assert _NAME_RE.match(f["name"])
            assert f["origin_entities"], f"{f['name']} lacks origins"
            assert set(f["origin_entities"]) <= predictor_entities
            assert f["source_attributes"]
            assert "G1" in f["guidelines"]
            # naming algebra: single-origin names carry their origin as prefix
            if len(f["origin_entities"]) == 1:
                origin = f["origin_entities"][0]
                assert f["name"].split("_")[0] in predictor_entities
                assert origin in f["name"]
            kind = f["transform"]["kind"]
            if kind == "count":
                assert f["name"].endswith("_count")
            elif kind in ("mean", "sum", "true_count", "concat"):
                assert f["name"].endswith(f"_{kind}")
            elif kind == "category_count":
                cat = f["transform"]["params"]["category"]
                safe = re.sub(r"[^A-Za-z0-9_]+", "_", cat)
                assert f["name"].endswith(f"_{safe}_count")


def _key_order(row, keys):
    """A joined row's place in ds0: the reprs of each entity's key cells (at
    ``keys``, one list of positions per entity) in join order, an absent
    entity, whose key is None, after every key."""
    return tuple((1,) if row[at[0]] is None else (0, *(repr(row[i]) for i in at)) for at in keys)


def _nested_loop_flatten(bound, binding):
    """Reference naive join: for every joined row and every tree edge, scan
    all rows of the child entity for partners; no indexes, no ranking.
    Returns the column names, the rows sorted by ``_key_order``, and the key
    positions that order reads."""
    schema = bound.schema
    frames = engine.build_frames(bound, list(binding.predictor_entities))
    root = binding.target_entity
    entities = [root] + [e.child for e in binding.spanning_tree]
    joined = [{root: row} for row in frames[root].rows]
    for edge in binding.spanning_tree:
        rel = schema.relationship(edge.relationship)
        pf, cf = frames[edge.parent], frames[edge.child]
        fk = rel.fk_columns[0]
        if rel.child_entity() == edge.child:
            p_i, c_i = pf.column_index(pf.key_columns[0]), cf.column_index(fk)
        else:
            p_i, c_i = pf.column_index(fk), cf.column_index(cf.key_columns[0])
        out = []
        for j in joined:
            prow = j[edge.parent]
            hits = [c for c in cf.rows if prow is not None and not is_null(prow[p_i])
                    and c[c_i] == prow[p_i]]
            hits.sort(key=lambda c: repr(c[cf.column_index(cf.key_columns[0])]))
            out.extend({**j, edge.child: c} for c in hits or [None])
        joined = out
    columns = [engine.feature_name(c.name, [c.origin_entities[0]], "raw")
               for e in entities for c in frames[e].columns]
    rows = []
    for j in joined:
        row = []
        for e in entities:
            width = len(frames[e].columns)
            src = j[e] if j[e] is not None else [None] * width
            row.extend(None if is_null(v) else v for v in src)
        rows.append(row)
    keys, start = [], 0
    for e in entities:
        keys.append([start + frames[e].column_index(k) for k in frames[e].key_columns])
        start += len(frames[e].columns)
    rows.sort(key=lambda r: _key_order(r, keys))
    return columns, rows, keys


def _check_flatten_matches_nested_loop(bound, binding):
    flat = engine.flatten_naive(bound, binding, engine.Derivations(bound, CLOCK))
    columns, rows, keys = _nested_loop_flatten(bound, binding)
    assert flat.table.column_names == columns
    # the join keeps each null's code; the reference reads every null as None
    got = [[None if is_null(v) else v for v in r] for r in flat.table.rows]
    assert got == rows  # same multiset, in the same order
    order = [_key_order(r, keys) for r in got]
    assert order == sorted(order)


@pytest.mark.parametrize("seed", range(1, 61))
def test_flatten_naive_matches_nested_loop_join(seed):
    case = Case(seed, derived=False)  # the nested-loop reference reads stored columns only
    assert not any(a.derivation for e in case.schema.entities for a in e.attributes)
    _check_flatten_matches_nested_loop(case.bound, case.binding)


# The N-side golden schema without its derivation, with every key declared
# after an attribute: ds0's key order is then not the order of its printed
# cells (o6's total 10 prints before o2's 25.5, l7's qty 2 before l4's 3).
N_SIDE_KEYS_LAST = """
entity CUSTOMER { attr region: nominal key cust_id: identifier attr vip: boolean }
entity ORDER { attr total: numeric key order_id: identifier attr placed: date }
entity LINE { attr qty: numeric key line_id: identifier }
entity PROFILE { attr score: numeric key profile_id: identifier }
relationship PLACES { CUSTOMER (0,1) -- (0,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
relationship HAS { CUSTOMER (0,1) -- (0,1) PROFILE via cust_id }
task T { target ORDER.total }
"""


def test_flatten_naive_matches_nested_loop_join_n_side_target(tmp_path):
    # ORDER carries the fk to its one CUSTOMER; order o4 has no customer and
    # customer c3 has no PROFILE
    for name, text in N_SIDE_DATA.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    schema = parse_full(N_SIDE_KEYS_LAST)
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle)
    assert bound.ok, bound.report.render()
    binding = eer.resolve_target(schema, schema.task("T"))
    assert any(schema.relationship(e.relationship).child_entity() != e.child
               for e in binding.spanning_tree)
    _check_flatten_matches_nested_loop(bound, binding)
    rows = engine.flatten_naive(bound, binding, engine.Derivations(bound, CLOCK)).table.rows
    # o2 before o6 and l4 before l7 by key, though o6's and l7's first cells
    # print first
    assert [(r[1], r[8]) for r in rows] == [("o1", "l1"), ("o1", "l2"), ("o2", UNKNOWN),
                                            ("o3", "l3"), ("o4", "l4"), ("o4", "l7"),
                                            ("o5", "l5"), ("o6", "l6")]


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", ["example", "n_side_target", "chain"])
def test_flatten_derived_root_columns_equal_prepare(name, tmp_path, monkeypatch):
    """Both arms derive in the plan's order, so every derived attribute of
    the target entity has the same value in ds0 (on every row of a root key)
    as in the prepared dataset."""
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    data = tmp_path / "data"
    data.mkdir()
    schema_path, data_dir, task_name = CASES[name](data)
    common = ["--schema", str(schema_path), "--data-dir", str(data_dir), "--task", task_name,
              "--quiet"]
    assert cli.main(["prepare", *common, "--impute", "none", "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["flatten", *common, "--out", str(tmp_path / "f")]) == 0
    schema, rep = dsl.parse_schema_file(str(schema_path))
    assert rep.ok, rep.render()
    root = schema.task(task_name).target_entity
    key = f"{root}_{schema.entity(root).key_names[0]}"
    derived = [f"{root}_{a.name}" for a in schema.entity(root).attributes if a.derivation]
    assert derived
    prepared = _csv_rows(tmp_path / "p" / f"{task_name}.csv")
    flat = _csv_rows(tmp_path / "f" / "ds0.csv")
    assert prepared
    for column in derived:
        flat_values: dict[str, set[str]] = {}
        for row in flat:
            flat_values.setdefault(row[key], set()).add(row[column])
        for row in prepared:
            assert flat_values[row[key]] == {row[column]}, (column, row[key])


def _chain_generated(tmp_path):
    """The chain golden schema over generated rows with two-decimal prices
    and shipping costs, so the last bit of a sum depends on its order."""
    rng = random.Random(3)
    tables = {"CUSTOMER": ["cust_id,segment,bonus"], "ORDER": ["order_id,shipping,cust_id"],
              "LINE": ["line_id,qty,unit_price,order_id"]}
    for c in range(12):
        tables["CUSTOMER"].append(f"c{c},{rng.choice('ab')},{round(rng.uniform(-5, 5), 2)}")
        for _ in range(rng.randint(0, 4)):
            o = len(tables["ORDER"])
            tables["ORDER"].append(f"o{o},{round(rng.uniform(0, 9), 2)},c{c}")
            for _ in range(rng.randint(0, 4)):
                tables["LINE"].append(f"l{len(tables['LINE'])},{rng.randint(1, 3)},"
                                      f"{round(rng.uniform(0, 20), 2)},o{o}")
    return _inline(CHAIN_SCHEMA, {n: "\n".join(rows) + "\n" for n, rows in tables.items()})(tmp_path)


@pytest.mark.parametrize("name", ["chain", "chain_generated", "propgen_1", "propgen_5",
                                  "propgen_12", "propgen_36", "n_side_keys_last", "consumed_key"])
def test_outputs_ignore_row_order_of_non_target_csvs(name, tmp_path, monkeypatch):
    """Derivations and summaries aggregate a parent's children in child-key
    order, so shuffling the rows of every CSV but the target entity's leaves
    the prepared datasets and ds0 byte-identical. ds0 starts from the target
    entity's rows in key order, so shuffling those leaves it byte-identical
    too."""
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    data = tmp_path / "data"
    data.mkdir()
    build = {"chain_generated": _chain_generated,
             "n_side_keys_last": _inline(N_SIDE_KEYS_LAST, N_SIDE_DATA),
             "consumed_key": _inline(CONSUMED_KEY_SCHEMA, CONSUMED_KEY_DATA)}.get(name)
    schema_path, data_dir, task_name = (build or CASES[name])(data)
    common = ["--schema", str(schema_path), "--data-dir", str(data_dir), "--task", task_name,
              "--quiet"]

    def outputs(out):
        assert cli.main(["prepare", *common, "--out", str(out / "p")]) == 0
        assert cli.main(["flatten", *common, "--out", str(out / "f")]) == 0
        files = sorted((out / "p").glob("*.csv")) + [out / "f" / "ds0.csv"]
        return {path.name: path.read_bytes() for path in files}

    def shuffle(paths):
        for path in paths:
            header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
            rng.shuffle(rows)
            path.write_text(header + "".join(rows), encoding="utf-8")

    before = outputs(tmp_path / "before")
    schema, rep = dsl.parse_schema_file(str(schema_path))
    assert rep.ok, rep.render()
    target = data_dir / f"{schema.task(task_name).target_entity}.csv"
    others = [path for path in sorted(data_dir.glob("*.csv")) if path != target]
    assert others
    rng = random.Random(0)
    shuffle(others)
    assert outputs(tmp_path / "after") == before
    shuffle([target])
    assert outputs(tmp_path / "target")["ds0.csv"] == before["ds0.csv"]


@pytest.mark.parametrize("seed", range(1, 61))
def test_print_parse_round_trip_propgen(seed):
    schema = Case(seed).schema
    printed = dsl.print_schema(schema)
    again, rep = dsl.parse_schema(printed)
    assert rep.ok, rep.render()
    assert again == schema
    assert dsl.print_schema(again).text == printed.text


_FUZZ_PIECES = ("$", "#", "\n", "(", ")", "{", "}", "-", "--", "- -", '"', "1e999", "5e2",
                "0", "N", ",", ".", ":", "=", "when", "from table", "optional",
                "applicable_when", "derived attr", "key", "entity", "task", "subtype")


@pytest.mark.parametrize("seed", range(500))
def test_mutated_example_schema_never_raises(seed):
    """Insert, delete or replace short pieces of the example schema: parsing
    and validation report diagnostics, never an exception, and every parse
    diagnostic points at a line and column of the file."""
    rng = random.Random(seed)
    text = EXAMPLE_SCHEMA.read_text()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        piece = rng.choice(_FUZZ_PIECES)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + piece + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 8):]
        else:
            text = text[:i] + f" {piece} " + text[i + rng.randint(1, 8):]
    schema, rep = dsl.parse_schema(dsl.SchemaSource(text, origin="f.cmml"))
    for d in rep.diagnostics:
        assert d.code in ("lex", "parse", "missing-key"), d.render()
        if d.code != "missing-key":
            assert re.fullmatch(r"f\.cmml:\d+:\d+", d.location), d.render()
    eer.validate_schema(schema)
