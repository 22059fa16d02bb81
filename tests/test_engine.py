import datetime as dt
import json
import random

import pytest

from cmml import binder, engine, planner
from cmml.tabular import Column, Table
from cmml.values import NOT_APPLICABLE, UNKNOWN, box, is_null
from conftest import CLOCK, parse_full


def _run(schema_text, tables, tmp_path, task_name="T", out_dir=None, **overrides):
    schema = parse_full(schema_text)
    for name, text in tables.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle)
    assert bound.ok, bound.report.render()
    task = schema.task(task_name)
    options = planner.PlanOptions.from_task(task, **overrides)
    plan = planner.compile_plan(bound.schema, task, options)
    return engine.prepare(plan, bound, engine.Derivations(bound, CLOCK), out_dir=out_dir)


def _col(ds, name):
    i = ds.table.column_index(name)
    key = ds.table.column_index(ds.table.key_columns[0])
    return {r[key]: r[i] for r in ds.table.rows}


def _example_run(example_bound, **overrides):
    schema = example_bound.schema
    task = schema.task("PREDICT_LTV")
    options = planner.PlanOptions.from_task(task, **overrides)
    plan = planner.compile_plan(example_bound.schema, task, options)
    return engine.prepare(plan, example_bound, engine.Derivations(example_bound, CLOCK))


# ---------------------------------------------------------------------------
# Feature naming algebra


@pytest.mark.parametrize("base,origins,transform,category,expected", [
    ("name", ["PRODUCT"], "raw", None, "PRODUCT_name"),
    ("benefit", ["CUSTOMER", "PRODUCT"], "derived", None, "benefit_CUSTOMER_PRODUCT"),
    ("total", ["ORDER"], "mean", None, "ORDER_total_mean"),
    ("", ["ORDER"], "count", None, "ORDER_count"),
    ("channel", ["ORDER"], "category_count", "Online", "ORDER_channel_Online_count"),
    ("channel", ["ORDER"], "category_count", "no/yes maybe",
     "ORDER_channel_no_yes_maybe_count"),
    ("priority", ["ORDER"], "true_count", None, "ORDER_priority_true_count"),
    ("notes", ["VISIT"], "concat", None, "VISIT_notes_concat"),
])
def test_feature_name(base, origins, transform, category, expected):
    assert engine.feature_name(base, origins, transform, category=category) == expected


# ---------------------------------------------------------------------------
# Worked example


def test_example_columns_exact(example_bound):
    datasets, _ = _example_run(example_bound)
    assert len(datasets) == 1
    ds = datasets[0]
    assert ds.table.column_names == [
        "CUSTOMER_cust_id", "CUSTOMER_gender", "CUSTOMER_age",
        "ORDER_count",
        "ORDER_total_mean", "ORDER_total_sum", "ORDER_total_min", "ORDER_total_max",
        "ORDER_channel_Online_count", "ORDER_channel_Phone_count",
        "ORDER_priority_ship_true_count",
        "ORDER_order_date_min", "ORDER_order_date_max",
        "CUSTOMER_ltv",
    ]
    assert len(ds.table.rows) == 4


def test_example_counts(example_bound):
    ds = _example_run(example_bound)[0][0]
    assert _col(ds, "ORDER_count") == {"101": 4.0, "400": 1.0, "223": 2.0, "398": 1.0}
    assert _col(ds, "ORDER_channel_Online_count") == {
        "101": 2.0, "400": 0.0, "223": 2.0, "398": 0.0}
    assert _col(ds, "ORDER_channel_Phone_count") == {
        "101": 2.0, "400": 1.0, "223": 0.0, "398": 1.0}
    assert _col(ds, "ORDER_priority_ship_true_count") == {
        "101": 3.0, "400": 0.0, "223": 1.0, "398": 0.0}


def test_example_numeric_summaries(example_bound):
    ds = _example_run(example_bound)[0][0]
    means = _col(ds, "ORDER_total_mean")
    for k, v in {"101": 48.0, "223": 59.5, "398": 1025.0, "400": 510.0}.items():
        assert means[k] == pytest.approx(v, abs=1e-9)
    assert _col(ds, "ORDER_total_sum") == {
        "101": 192.0, "223": 119.0, "398": 1025.0, "400": 510.0}
    assert _col(ds, "ORDER_total_min")["101"] == 17.0
    assert _col(ds, "ORDER_total_max")["101"] == 100.0


def test_example_derived_columns(example_bound):
    ds = _example_run(example_bound)[0][0]
    assert _col(ds, "CUSTOMER_age") == {"101": 22.0, "400": 27.0, "223": 44.0, "398": 87.0}
    assert _col(ds, "CUSTOMER_ltv") == {
        "101": 192.0, "223": 119.0, "398": 1025.0, "400": 510.0}


def test_example_date_summaries(example_bound):
    ds = _example_run(example_bound)[0][0]
    assert _col(ds, "ORDER_order_date_min")["101"] == dt.date(2016, 11, 1)
    assert _col(ds, "ORDER_order_date_max")["101"] == dt.date(2019, 4, 21)


def test_target_leakage_warning(example_bound):
    _, manifest = _example_run(example_bound)
    assert any("ltv" in w and ("leak" in w.lower() or "total" in w)
               for w in manifest["warnings"])


# ---------------------------------------------------------------------------
# Summarization details


def test_empty_child_set(tmp_path):
    datasets, _ = _run("""
        entity P { key pid: identifier attr t: numeric }
        entity C { key cid: identifier attr v: numeric }
        relationship R { P (1,1) -- (0,N) C via pid }
        task T { target P.t }
    """, {
        "P": "pid,t\np1,1\np2,2\n",
        "C": "cid,v,pid\nc1,10,p1\n",
    }, tmp_path, impute="none")
    ds = datasets[0]
    assert _col(ds, "C_count")["p2"] == 0.0
    assert _col(ds, "C_v_sum")["p2"] == 0.0
    assert is_null(_col(ds, "C_v_mean")["p2"])
    assert is_null(_col(ds, "C_v_min")["p2"])


def test_top_k_pooling_and_tie_order(tmp_path):
    # dataset-wide frequencies: b=3, a=2, c=2, d=1; top_k=2 keeps b then a
    # (c ties a, lexical order keeps a); c and d pool into OTHER
    datasets, _ = _run("""
        entity P { key pid: identifier attr t: numeric }
        entity C { key cid: identifier attr cat: nominal }
        relationship R { P (1,1) -- (0,N) C via pid }
        task T { target P.t top_k 2 }
    """, {
        "P": "pid,t\np1,1\n",
        "C": ("cid,cat,pid\n"
              "c1,b,p1\nc2,b,p1\nc3,b,p1\n"
              "c4,a,p1\nc5,a,p1\n"
              "c6,c,p1\nc7,c,p1\n"
              "c8,d,p1\n"),
    }, tmp_path)
    ds = datasets[0]
    names = ds.table.column_names
    assert "C_cat_b_count" in names and "C_cat_a_count" in names
    assert "C_cat_c_count" not in names
    assert _col(ds, "C_cat_OTHER_count")["p1"] == 3.0
    # per-category counts + OTHER = C_count (no null categories present)
    assert (_col(ds, "C_cat_b_count")["p1"] + _col(ds, "C_cat_a_count")["p1"]
            + _col(ds, "C_cat_OTHER_count")["p1"]) == _col(ds, "C_count")["p1"]


def test_no_other_column_when_under_top_k(example_bound):
    ds = _example_run(example_bound)[0][0]
    assert "ORDER_channel_OTHER_count" not in ds.table.column_names


def test_text_concat_in_child_key_order(tmp_path):
    datasets, _ = _run("""
        entity P { key pid: identifier attr t: numeric }
        entity C { key cid: identifier attr note: text }
        relationship R { P (1,1) -- (0,N) C via pid }
        task T { target P.t }
    """, {
        "P": "pid,t\np1,1\n",
        "C": "cid,note,pid\nc2,second,p1\nc1,first,p1\nc3,,p1\n",
    }, tmp_path)
    assert _col(datasets[0], "C_note_concat")["p1"] == "first\nsecond"


def test_one_to_one_join_prefixes_columns(tmp_path):
    datasets, _ = _run("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier attr v: numeric }
        relationship AB { A (1,1) -- (0,1) B via aid }
        task T { target A.t }
    """, {
        "A": "aid,t\na1,1\na2,2\n",
        "B": "bid,v,aid\nb1,42,a1\n",
    }, tmp_path, impute="none")
    ds = datasets[0]
    col = _col(ds, "B_v")
    assert col["a1"] == 42.0
    assert col["a2"] == NOT_APPLICABLE  # optional partner absent


def test_one_to_one_join_over_two_partners_takes_the_first_by_key(tmp_path):
    # a1 has two B rows (a cardinality warning); the join reads the partner
    # index in child-key order, whatever the order of B's rows in its file
    datasets, _ = _run("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier attr v: numeric }
        relationship AB { A (1,1) -- (0,1) B via aid }
        task T { target A.t }
    """, {
        "A": "aid,t\na1,1\na2,2\n",
        "B": "bid,v,aid\nb2,7,a1\nb1,42,a1\n",
    }, tmp_path, impute="none")
    assert _col(datasets[0], "B_v") == {"a1": 42.0, "a2": NOT_APPLICABLE}


# ---------------------------------------------------------------------------
# Splitting


SPLIT_TEXT = """
entity E { key id: identifier attr t: numeric attr size: numeric }
generalization G of E disjoint {
  subtype SMALL when (size < 10) { attr s_extra: numeric }
  subtype BIG when (size >= 10) { attr b_extra: numeric }
}
task T { target E.t }
"""

SPLIT_DATA = {
    "E": ("id,t,size,s_extra,b_extra\n"
          "a,1,5,7,\n"
          "b,2,20,,9\n"
          "c,3,6,8,\n"),
}


def test_disjoint_split_partitions_and_excludes_sibling_columns(tmp_path):
    datasets, _ = _run(SPLIT_TEXT, SPLIT_DATA, tmp_path)
    by_name = {d.name: d for d in datasets}
    small, big = by_name["T_SMALL"], by_name["T_BIG"]
    assert {r[0] for r in small.table.rows} == {"a", "c"}
    assert {r[0] for r in big.table.rows} == {"b"}
    assert "SMALL_s_extra" in small.table.column_names
    assert not any("b_extra" in c for c in small.table.column_names)
    assert not any("s_extra" in c for c in big.table.column_names)


def test_overlap_split_duplicates_members(tmp_path):
    text = SPLIT_TEXT.replace("disjoint", "overlap").replace(
        "when (size >= 10)", "when (size > 4)")
    datasets, _ = _run(text, SPLIT_DATA, tmp_path)
    by_name = {d.name: d for d in datasets}
    assert {r[0] for r in by_name["T_SMALL"].table.rows} == {"a", "c"}
    assert {r[0] for r in by_name["T_BIG"].table.rows} == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# Imputation


def test_impute_fills_unknown_only(tmp_path):
    datasets, manifest = _run("""
        entity E {
          key id: identifier
          attr t: numeric
          attr employed: boolean
          attr salary: numeric applicable_when (employed = true)
          attr v: numeric
        }
        task T { target E.t }
    """, {
        "E": ("id,t,employed,salary,v\n"
              "a,1,true,100,10\n"
              "b,2,true,,20\n"      # unknown -> imputed to 100
              "c,3,false,,\n"),     # salary not_applicable; v unknown -> mean 15
    }, tmp_path)
    ds = datasets[0]
    sal = _col(ds, "E_salary")
    assert sal["b"] == 100.0
    assert sal["c"] == NOT_APPLICABLE  # untouched
    assert _col(ds, "E_v")["c"] == 15.0
    feats = manifest["datasets"]["T"]["features"]
    sal_rec = next(f for f in feats if f["name"] == "E_salary")
    assert sal_rec["imputed_cells"] == 1


def test_impute_per_subtype_means(tmp_path):
    datasets, _ = _run(SPLIT_TEXT, {
        "E": ("id,t,size,s_extra,b_extra\n"
              "a,1,5,10,\n"
              "b,2,6,30,\n"
              "c,3,7,,\n"       # SMALL, s_extra unknown -> small mean 20
              "d,4,20,,100\n"
              "e,5,21,,300\n"
              "f,6,22,,\n"),    # BIG, b_extra unknown -> big mean 200
    }, tmp_path)
    by_name = {d.name: d for d in datasets}
    assert _col(by_name["T_SMALL"], "SMALL_s_extra")["c"] == 20.0
    assert _col(by_name["T_BIG"], "BIG_b_extra")["f"] == 200.0


def test_impute_mode_tie_lexically_smallest(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric attr c: nominal }
        task T { target E.t }
    """, {
        "E": "id,t,c\na,1,x\nb,2,y\nc,3,\n",
    }, tmp_path)
    assert _col(datasets[0], "E_c")["c"] == "x"


def test_impute_constant_strategy(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric attr v: numeric }
        task T { target E.t }
    """, {
        "E": "id,t,v\na,1,\nb,2,5\n",
    }, tmp_path, impute="constant:0")
    assert _col(datasets[0], "E_v")["a"] == 0.0


def test_impute_all_null_column_left_null_with_warning(tmp_path):
    datasets, manifest = _run("""
        entity E { key id: identifier attr t: numeric attr v: numeric }
        task T { target E.t }
    """, {
        "E": "id,t,v\na,1,\nb,2,\n",
    }, tmp_path)
    assert all(is_null(v) for v in _col(datasets[0], "E_v").values())
    assert any("E_v" in w or "v" in w for w in manifest["warnings"])


# ---------------------------------------------------------------------------
# Emission and manifest


def test_null_target_rows_dropped_and_counted(tmp_path):
    datasets, manifest = _run("""
        entity E { key id: identifier attr t: numeric attr v: numeric }
        task T { target E.t }
    """, {
        "E": "id,t,v\na,1,5\nb,,6\n",
    }, tmp_path)
    ds = datasets[0]
    assert len(ds.table.rows) == 1
    assert ds.dropped_null_target == 1
    assert manifest["datasets"]["T"]["dropped_null_target_rows"] == 1


def test_rows_sorted_by_key(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric }
        task T { target E.t }
    """, {
        "E": "id,t\nzeta,1\nalpha,2\nmid,3\n",
    }, tmp_path)
    assert [r[0] for r in datasets[0].table.rows] == ["alpha", "mid", "zeta"]


def test_consumed_source_attributes_not_emitted(example_bound):
    # dob feeds the same-entity age derivation and is dropped from emission
    ds = _example_run(example_bound)[0][0]
    assert not any("dob" in c for c in ds.table.column_names)


def test_manifest_structure(example_bound):
    _, manifest = _example_run(example_bound)
    assert manifest["task"] == "PREDICT_LTV"
    assert manifest["target"] == "CUSTOMER.ltv"
    assert manifest["naming_policy"] == "G1"
    assert set(manifest["table_sha256"]) == {"CUSTOMER", "ORDER", "PRODUCT",
                                             "ORDER_PRODUCT"}
    feats = manifest["datasets"]["PREDICT_LTV"]["features"]
    by_name = {f["name"]: f for f in feats}
    ds = _example_run(example_bound)[0][0]
    assert set(by_name) == set(ds.table.column_names)
    mean = by_name["ORDER_total_mean"]
    assert mean["origin_entities"] == ["ORDER"]
    assert mean["transform"]["kind"] == "mean"
    assert "G4" in mean["guidelines"] and "G1" in mean["guidelines"]
    age = by_name["CUSTOMER_age"]
    assert age["source_attributes"] == ["CUSTOMER.dob"]
    assert "G2" in age["guidelines"]
    json.dumps(manifest)  # fully serializable


def test_execute_writes_outputs_and_is_deterministic(example_bound, tmp_path):
    schema = example_bound.schema
    task = schema.task("PREDICT_LTV")
    options = planner.PlanOptions.from_task(task)
    plan = planner.compile_plan(example_bound.schema, task, options)
    engine.prepare(plan, example_bound, engine.Derivations(example_bound, CLOCK),
                   out_dir=tmp_path / "a")
    engine.prepare(plan, example_bound, engine.Derivations(example_bound, CLOCK),
                   out_dir=tmp_path / "b")
    for fname in ("PREDICT_LTV.csv", "manifest.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_holdout_split(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric }
        task T { target E.t }
    """, {
        "E": "id,t\n" + "".join(f"k{i},{i}\n" for i in range(40)),
    }, tmp_path, out_dir=tmp_path / "out", holdout=0.25)
    main = (tmp_path / "out" / "T_train.csv").read_text().strip().splitlines()
    hold = (tmp_path / "out" / "T_test.csv").read_text().strip().splitlines()
    assert len(main) + len(hold) == 42  # 40 rows + 2 headers
    assert len(hold) > 1  # a deterministic, nonempty slice
    # disjoint keys
    main_keys = {l.split(",")[0] for l in main[1:]}
    hold_keys = {l.split(",")[0] for l in hold[1:]}
    assert not (main_keys & hold_keys)


# ---------------------------------------------------------------------------
# Naive flattening


def test_flatten_example(example_bound):
    from cmml import eer
    schema = example_bound.schema
    binding = eer.resolve_target(schema, schema.task("PREDICT_LTV"))
    flat = engine.flatten_naive(example_bound, binding, engine.Derivations(example_bound, CLOCK))
    assert len(flat.table.rows) == 8
    names = flat.table.column_names
    assert "CUSTOMER_cust_id" in names and "ORDER_total" in names
    assert flat.target_column == "CUSTOMER_ltv"
    # target repeats per child row
    key = flat.table.column_index("CUSTOMER_cust_id")
    tgt = flat.table.column_index("CUSTOMER_ltv")
    vals = {r[key] for r in flat.table.rows if r[tgt] == 192.0}
    assert vals == {"101"}


def test_flatten_single_entity_equals_table(tmp_path):
    from cmml import eer
    schema = parse_full("""
        entity E { key id: identifier attr t: numeric attr v: numeric }
        task T { target E.t }
    """)
    (tmp_path / "E.csv").write_text("id,t,v\na,1,5\nb,2,6\n")
    bundle, _ = binder.load_bundle(schema, tmp_path)
    bound = binder.bind(schema, bundle)
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task("T")),
                                engine.Derivations(bound, CLOCK))
    assert len(flat.table.rows) == 2


def test_flatten_keeps_target_read_by_a_derivation(tmp_path):
    from cmml import eer
    schema = parse_full("""
        entity CUSTOMER { key cust_id: identifier attr spend: numeric
                          derived attr big: boolean = spend > 20 }
        task T { target CUSTOMER.spend }
    """)
    (tmp_path / "CUSTOMER.csv").write_text("cust_id,spend\nc1,10\nc2,30\n")
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task("T")),
                                engine.Derivations(bound, CLOCK))
    assert flat.table.column_names == ["CUSTOMER_cust_id", "CUSTOMER_spend", "CUSTOMER_big"]
    assert flat.target_column == "CUSTOMER_spend"
    assert flat.table.rows == [["c1", 10.0, False], ["c2", 30.0, True]]


# ---------------------------------------------------------------------------
# A derived aggregate over a relationship is the matching G4 summary


def test_derived_aggregates_equal_child_summaries(tmp_path):
    from cmml import eer
    text = """
        entity CUSTOMER { key cust_id: identifier attr y: numeric
                          derived attr n: numeric = count(PLACES)
                          derived attr s: numeric = sum(PLACES.total)
                          derived attr m: numeric = mean(PLACES.total)
                          derived attr lo: numeric = min(PLACES.total)
                          derived attr hi: numeric = max(PLACES.total)
                          derived attr first: date = min(PLACES.placed)
                          derived attr last: date = max(PLACES.placed) }
        entity ORDER { key order_id: identifier attr total: numeric attr placed: date }
        relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
        task T { target CUSTOMER.y }
    """
    # c1's orders are not in key order in the file, and 0.3 + 0.1 + 0.7
    # (file order) differs from 0.1 + 0.7 + 0.3 (key order) in the last bit
    tables = {"CUSTOMER": "cust_id,y\nc1,1\nc2,2\nc3,3\n",
              "ORDER": ("order_id,total,placed,cust_id\nO3,0.3,2018-03-01,c1\n"
                        "O1,0.1,2018-01-01,c1\nO2,0.7,,c1\nO4,,2018-04-01,c2\n")}
    (ds,), _ = _run(text, tables, tmp_path, impute="none")
    assert _col(ds, "ORDER_total_sum") == {"c1": 0.1 + 0.7 + 0.3, "c2": 0.0, "c3": 0.0}
    assert _col(ds, "ORDER_total_mean")["c2"] == UNKNOWN
    pairs = {"CUSTOMER_n": "ORDER_count", "CUSTOMER_s": "ORDER_total_sum",
             "CUSTOMER_m": "ORDER_total_mean", "CUSTOMER_lo": "ORDER_total_min",
             "CUSTOMER_hi": "ORDER_total_max", "CUSTOMER_first": "ORDER_placed_min",
             "CUSTOMER_last": "ORDER_placed_max"}
    for derived, summary in pairs.items():
        assert _col(ds, derived) == _col(ds, summary), derived
    # ds0 evaluates the same derivations with the same code
    schema = parse_full(text)
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task("T")),
                                engine.Derivations(bound, CLOCK))
    s = flat.table.column_index("CUSTOMER_s")
    assert {row[0]: row[s] for row in flat.table.rows} == {
        k: (None if is_null(v) else v) for k, v in _col(ds, "ORDER_total_sum").items()}


# ---------------------------------------------------------------------------
# Derivations run in dependency order and read derived attributes by name

# z reads the aggregate-bearing n, z2 reads y declared after it, and twice
# reads the derived LINE_count, whose working column is renamed LINE_count_2
# because the G4 summary of LINE onto ORDER is called LINE_count too. o2 has
# no line and c3 no order.
DEPENDENT_SCHEMA = """
    entity CUSTOMER { key cust_id: identifier attr spend: numeric }
    entity ORDER {
      key order_id: identifier
      attr shipping: numeric
      derived attr n: numeric = count(CONTAINS)
      derived attr z: numeric = n * 2
      derived attr z2: numeric = y * 2
      derived attr y: numeric = shipping + 1
      derived attr twice: numeric = LINE_count + 1
      derived attr LINE_count: numeric = sum(CONTAINS.qty) * 2
    }
    entity LINE { key line_id: identifier attr qty: numeric }
    relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
    relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
    task T { target CUSTOMER.spend }
"""
DEPENDENT_DATA = {
    "CUSTOMER": "cust_id,spend\nc1,10\nc2,20\nc3,30\n",
    "ORDER": "order_id,shipping,cust_id\no1,2,c1\no2,0,c1\no3,5,c2\n",
    "LINE": "line_id,qty,order_id\nl1,1,o1\nl2,2,o1\nl3,4,o3\n",
}


def test_derivations_read_derived_attributes_in_dependency_order(tmp_path):
    from cmml import eer
    (ds,), manifest = _run(DEPENDENT_SCHEMA, DEPENDENT_DATA, tmp_path, impute="none")
    # per order (z, z2, twice): o1 (4, 6, 7), o2 (0, 2, 1), o3 (2, 12, 9)
    assert _col(ds, "ORDER_z_sum") == {"c1": 4.0, "c2": 2.0, "c3": 0.0}
    assert _col(ds, "ORDER_z2_sum") == {"c1": 8.0, "c2": 12.0, "c3": 0.0}
    assert _col(ds, "ORDER_twice_sum") == {"c1": 8.0, "c2": 9.0, "c3": 0.0}
    # the G4 line count is kept; the derived LINE_count feeds twice only
    assert _col(ds, "ORDER_LINE_count_sum") == {"c1": 2.0, "c2": 1.0, "c3": 0.0}
    assert not any("LINE_count_2" in name for name in ds.table.column_names)
    assert "feature name collision: 'LINE_count' renamed to LINE_count_2" in manifest["warnings"]

    schema = parse_full(DEPENDENT_SCHEMA)
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task("T")),
                                engine.Derivations(bound, CLOCK))
    names = flat.table.column_names
    assert names[:3] == ["CUSTOMER_cust_id", "CUSTOMER_spend", "ORDER_order_id"]
    cells = {row[names.index("ORDER_order_id")]: tuple(row[names.index(f"ORDER_{a}")]
                                                        for a in ("z", "z2", "twice"))
             for row in flat.table.rows}
    # c3's absent order: every cell of the absent row reads unknown
    assert cells == {"o1": (4.0, 6.0, 7.0), "o2": (0.0, 2.0, 1.0), "o3": (2.0, 12.0, 9.0),
                     UNKNOWN: (UNKNOWN, UNKNOWN, UNKNOWN)}


def test_not_imputed_warnings_name_their_reason(tmp_path):
    # a text column has known cells but is never filled under mean_mode; a
    # numeric column without a known cell has nothing to fill with
    text = """
        entity E { key id: identifier attr note: text attr x: numeric attr y: numeric }
        task T { target E.y }
    """
    tables = {"E": "id,note,x,y\na,hi,,1\nb,,,2\nc,there,,3\nd,,,4\n"}
    (ds,), manifest = _run(text, tables, tmp_path)
    assert manifest["warnings"] == [
        "dataset T: column 'x' has no known values; left null",
        "dataset T: text column 'note' is not imputed under mean_mode; 2 unknown cell(s) left null"]
    assert _col(ds, "E_note") == {"a": "hi", "b": UNKNOWN, "c": "there", "d": UNKNOWN}


def test_naive_join_after_execute_sees_unimputed_cells(tmp_path):
    # evaluate runs execute, then flatten_naive, on one bound model and one
    # Derivations: impute must fill copies, not the shared derived cells or
    # the bound table's columns
    text = """
        entity CUSTOMER { key cust_id: identifier attr bonus: numeric attr other: numeric
                          attr y: numeric derived attr twice: numeric = bonus * 2 }
        task T { target CUSTOMER.y }
    """
    schema = parse_full(text)
    (tmp_path / "CUSTOMER.csv").write_text("cust_id,bonus,other,y\nc1,1,5,1\nc2,,,2\nc3,3,7,3\n",
                                           encoding="utf-8")
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    task = schema.task("T")
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    derivations = engine.Derivations(bound, CLOCK)
    (ds,), _ = engine.execute(plan, bound, derivations)
    assert _col(ds, "CUSTOMER_twice") == {"c1": 2.0, "c2": 4.0, "c3": 6.0}
    assert _col(ds, "CUSTOMER_other") == {"c1": 5.0, "c2": 6.0, "c3": 7.0}
    assert box(derivations.derived("CUSTOMER", "twice")[0]) == [2.0, UNKNOWN, 6.0]
    flat = engine.flatten_naive(bound, plan.binding, derivations)
    names = flat.table.column_names
    assert flat.table.rows[1][names.index("CUSTOMER_twice")] is UNKNOWN
    assert flat.table.rows[1][names.index("CUSTOMER_other")] is UNKNOWN


def test_derivation_reads_a_derived_attribute_on_demand(tmp_path, monkeypatch):
    schema = parse_full(DEPENDENT_SCHEMA)
    for name, text in DEPENDENT_DATA.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    derivations = engine.Derivations(bound, CLOCK)
    evaluated = []
    evaluate = derivations._evaluate
    monkeypatch.setattr(derivations, "_evaluate",
                        lambda entity, attr: evaluated.append(attr) or evaluate(entity, attr))
    # z2 reads y, which is evaluated on demand, once
    cells, diags = derivations.derived("ORDER", "z2")
    assert (box(cells), diags) == ([6.0, 2.0, 12.0], [])
    cells, diags = derivations.derived("ORDER", "y")
    assert (box(cells), diags) == ([3.0, 1.0, 6.0], [])
    assert evaluated == ["z2", "y"]


# ---------------------------------------------------------------------------
# Non-finite numerics: an overflow becomes an unknown cell plus a warning


def test_overflowing_derivation_is_unknown(tmp_path):
    from cmml import eer
    text = """
        entity CUSTOMER { key cust_id: identifier attr spend: numeric attr y: numeric
                          derived attr huge: numeric = spend * 1e308 }
        task T { target CUSTOMER.y }
    """
    tables = {"CUSTOMER": "cust_id,spend,y\nc1,10,1\nc2,0,2\n"}
    out = tmp_path / "out"
    (ds,), manifest = _run(text, tables, tmp_path, out_dir=out, impute="none")
    assert _col(ds, "CUSTOMER_huge") == {"c1": UNKNOWN, "c2": 0.0}
    assert manifest["warnings"] == ["CUSTOMER.huge: 1 non-finite value(s) set to unknown"]
    assert (out / "T.csv").read_text().splitlines()[1:] == ["c1,,1", "c2,0,2"]
    schema = parse_full(text)
    bound = binder.bind(schema, binder.load_bundle(schema, tmp_path)[0])
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task("T")),
                                engine.Derivations(bound, CLOCK))
    assert flat.table.rows == [["c1", 1.0, UNKNOWN], ["c2", 2.0, 0.0]]


def test_overflowing_child_summary_is_unknown(tmp_path):
    text = """
        entity CUSTOMER { key cust_id: identifier attr y: numeric }
        entity ORDER { key order_id: identifier attr total: numeric }
        relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
        task T { target CUSTOMER.y }
    """
    tables = {"CUSTOMER": "cust_id,y\nc1,1\nc2,2\n",
              "ORDER": "order_id,total,cust_id\no1,1e308,c1\no2,1e308,c1\no3,5,c2\n"}
    out = tmp_path / "out"
    (ds,), manifest = _run(text, tables, tmp_path, out_dir=out, impute="none")
    assert _col(ds, "ORDER_total_sum") == {"c1": UNKNOWN, "c2": 5.0}
    assert _col(ds, "ORDER_total_mean") == {"c1": UNKNOWN, "c2": 5.0}
    assert _col(ds, "ORDER_total_max") == {"c1": 1e308, "c2": 5.0}
    assert manifest["warnings"] == ["ORDER_total_mean: 1 non-finite value(s) set to unknown",
                                    "ORDER_total_sum: 1 non-finite value(s) set to unknown"]
    assert (out / "T.csv").read_text().splitlines()[1] == "c1,2,,,1e+308,1e+308,1"


def test_non_finite_mean_fill_leaves_cells_null(tmp_path):
    tables = {"E": "id,x,y\na,1e308,1\nb,1e308,2\nc,,3\n"}
    text = "entity E { key id: identifier attr x: numeric attr y: numeric } task T { target E.y }"
    (ds,), manifest = _run(text, tables, tmp_path, out_dir=tmp_path / "out")
    assert _col(ds, "E_x") == {"a": 1e308, "b": 1e308, "c": UNKNOWN}
    assert manifest["warnings"] == ["dataset T: column 'x' has a non-finite fill; left null"]
    assert (tmp_path / "out" / "T.csv").read_text().splitlines()[3] == "c,,3"


def _all_cells_rank(cells):
    printed = [tuple(repr(None if is_null(v) else v) for v in row) for row in cells]
    rank_of = {p: k for k, p in enumerate(sorted(set(printed)))}
    return [rank_of[p] for p in printed]


@pytest.mark.parametrize("seed", range(40))
def test_lazy_rank_equals_all_cells_rank(seed):
    # few distinct values per column, so leading columns tie and rows repeat;
    # the ranking may stop after any column, or read them all
    rng = random.Random(seed)
    width = rng.randint(0, 5)
    values = {"numeric": [0.5, -1.0, 7.0, -0.0], "text": ["a", "b", "a b", "a'b"],
              "boolean": [True, False], "date": [dt.date(2020, 1, 2), dt.date(2019, 10, 1)]}
    kinds = [rng.choice(sorted(values)) for _ in range(width)]
    pools = [[rng.choice(values[kind] + [None, NOT_APPLICABLE]) for _ in range(rng.randint(1, 3))]
             for kind in kinds]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(rng.randint(0, 25))]
    if rows and rng.random() < 0.3:
        rows += [list(rows[0])] * 2
    if rng.random() < 0.3:  # a unique key in front: the only column printed
        rows = [[f"k{i:02d}"] + row for i, row in enumerate(rows)]
        kinds = ["identifier"] + kinds
        width += 1
    rng.shuffle(rows)
    frame = Table("E", [Column(f"c{j}", kind, origin_entities=["E"]) for j, kind in enumerate(kinds)],
                  rows)
    columns, cells, ranks = engine._project_and_rank(frame)
    assert [c.name for c in columns] == [f"E_c{j}" for j in range(width)]
    cells = [box(column) for column in cells]
    assert [column[-1] for column in cells] == [UNKNOWN] * width
    # a table without columns has no rows: only the absent row is ranked
    assert ranks.tolist() == _all_cells_rank([tuple(column[i] for column in cells)
                                              for i in range(frame.row_count + 1)])
