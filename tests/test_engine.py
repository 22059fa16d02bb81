import csv
import datetime as dt
import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from cmml import binder, eer, engine, planner
from cmml.values import NOT_APPLICABLE, UNKNOWN, box, format_cell, is_null
from conftest import CLOCK, column, parse_full


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


def test_split_and_emit_copy_no_column(tmp_path, monkeypatch):
    # A disjoint split of 50,000 roots with 20 numeric columns, imputed by
    # nothing: each dataset is the root's columns and its member rows, and
    # emit gathers no cell. Measured on 9.9 MB of root columns, the tracemalloc
    # peak of subtype_split was 0.46 MB and of the larger emit_dataset 0.62 MB
    # (the member and kept-row indexes); when both copied the columns, they
    # were 10.3 MB and 5.4 MB.
    n, width = 50_000, 20
    rng = np.random.default_rng(7)
    cells = rng.integers(0, 1000, (n, width + 1)).tolist()
    header = ",".join(["id", "t"] + [f"x{j}" for j in range(width)])
    (tmp_path / "E.csv").write_text(header + "\n" + "".join(
        f"k{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(cells)), encoding="utf-8")
    schema = parse_full(
        "entity E { key id: identifier attr t: numeric "
        + " ".join(f"attr x{j}: numeric" for j in range(width)) + " }\n"
        "generalization G of E disjoint { subtype LOW when (x0 < 500) { }\n"
        "                                 subtype HIGH when (x0 >= 500) { } }\n"
        "task T { target E.t split_by G impute none }")
    bundle, rep = binder.load_bundle(schema, tmp_path)
    bound = binder.bind(schema, bundle, CLOCK)
    assert rep.ok and bound.ok
    task = schema.task("T")
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    derivations = engine.Derivations(bound, CLOCK)
    derivations.key_rank("E")  # the command's one key sort, shared with flatten
    peaks: dict[str, int] = {}

    def traced(method):
        def run(self, **params):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            method(self, **params)
            peak = tracemalloc.get_traced_memory()[1] - start
            peaks[method.__name__] = max(peaks.get(method.__name__, 0), peak)
            if not tracing:
                tracemalloc.stop()
        return run

    for name in ("subtype_split", "emit_dataset"):
        monkeypatch.setattr(engine._Execution, name, traced(getattr(engine._Execution, name)))
    datasets, _ = engine.execute(plan, bound, derivations)
    root = bound.bundle.table("E")
    root_bytes = sum(vec.values.nbytes + vec.null.nbytes for vec in root.cells)
    assert [len(ds.table.rows) for ds in datasets] == [
        sum(row[1] < 500 for row in cells), sum(row[1] >= 500 for row in cells)]
    assert root_bytes > 9_000_000
    assert set(peaks) == {"subtype_split", "emit_dataset"}
    assert all(peak < root_bytes // 10 for peak in peaks.values()), (peaks, root_bytes)


def test_overlap_imputation_fits_each_dataset_on_its_own_members(tmp_path):
    # m is a member of both subtypes and shares each root column between
    # them; its fills, and each dataset's imputed_cells, come from the
    # dataset's own members. Over every root the mean of v would be 126, the
    # mode of c a tie of p and r (p) and the lower median of d 2019-01-05.
    datasets, manifest = _run("""
        entity E { key id: identifier attr t: numeric attr size: numeric
                   attr v: numeric attr c: nominal attr d: date }
        generalization G of E overlap {
          subtype SMALL when (size < 10) { }
          subtype BIG when (size >= 5) { }
        }
        task T { target E.t }
    """, {
        "E": ("id,t,size,v,c,d\n"
              "a,1,1,10,p,2019-01-01\n"
              "b,2,2,20,p,2019-01-03\n"
              "n,3,3,,q,2019-01-05\n"
              "m,4,7,,,\n"
              "x,5,20,100,r,2020-01-01\n"
              "y,6,21,300,r,2020-02-01\n"
              "z,7,22,200,,\n"),
    }, tmp_path)
    by_name = {d.name: d for d in datasets}
    small, big = by_name["T_SMALL"], by_name["T_BIG"]
    assert _col(small, "E_v") == {"a": 10.0, "b": 20.0, "n": 15.0, "m": 15.0}
    assert _col(big, "E_v") == {"m": 200.0, "x": 100.0, "y": 300.0, "z": 200.0}
    assert _col(small, "E_c") == {"a": "p", "b": "p", "n": "q", "m": "p"}
    assert _col(big, "E_c") == {"m": "r", "x": "r", "y": "r", "z": "r"}
    assert _col(small, "E_d") == {"a": dt.date(2019, 1, 1), "b": dt.date(2019, 1, 3),
                                  "n": dt.date(2019, 1, 5), "m": dt.date(2019, 1, 3)}
    assert _col(big, "E_d") == {"m": dt.date(2020, 1, 1), "x": dt.date(2020, 1, 1),
                                "y": dt.date(2020, 2, 1), "z": dt.date(2020, 1, 1)}
    imputed = {name: {f["name"]: (f["imputed_cells"], f["transform"]["params"]["imputation"]["fill"])
                      for f in ds["features"] if f["imputed_cells"]}
               for name, ds in manifest["datasets"].items()}
    assert imputed == {
        "T_SMALL": {"E_v": (2, 15.0), "E_c": (1, "p"), "E_d": (1, "2019-01-03")},
        "T_BIG": {"E_v": (1, 200.0), "E_c": (2, "r"), "E_d": (2, "2020-01-01")},
    }


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


# Identifier columns are never features, wherever they come from: a
# subtype's attribute (from its membership table or on its supertype's rows)
# or a derived attribute of identifier kind.
def test_subtype_identifier_attributes_are_not_emitted(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric }
        generalization G of E overlap {
          subtype S from table { attr ref_s: identifier attr x: numeric }
          subtype R when (t > 1) { attr ref_r: identifier }
        }
        task T { target E.t split_by G }
    """, {
        "E": "id,t,ref_r\na,1,\nb,2,u\nc,3,v\n",
        "S": "id,ref_s,x\na,k1,5\nc,k2,6\n",
    }, tmp_path)
    assert [d.table.column_names for d in datasets] == [["E_id", "S_x", "E_t"], ["E_id", "E_t"]]


def test_identifier_derived_attribute_is_not_emitted(tmp_path):
    datasets, _ = _run("""
        entity E { key id: identifier attr t: numeric
                   derived attr alias: identifier = id }
        task T { target E.t }
    """, {"E": "id,t\na,1\nb,2\n"}, tmp_path)
    assert datasets[0].table.column_names == ["E_id", "E_t"]


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

    # an overlap split, roots out of key order and some targets null: each
    # dataset's train and test rows are its own rows, disjoint, in key order
    text = SPLIT_TEXT.replace("disjoint", "overlap").replace("when (size >= 10)", "when (size > 4)")
    order = random.Random(3).sample(range(40), 40)
    rows = "".join(f"k{i:02d},{'' if i % 7 == 3 else i},{i % 15},"
                   f"{i if i % 15 < 10 else ''},{i if i % 15 > 4 else ''}\n" for i in order)
    out = tmp_path / "split_out"
    (tmp_path / "split").mkdir()
    datasets, _ = _run(text, {"E": "id,t,size,s_extra,b_extra\n" + rows}, tmp_path / "split",
                       out_dir=out, holdout=0.25)
    assert [ds.name for ds in datasets] == ["T_SMALL", "T_BIG"]
    for ds in datasets:
        lines = (out / f"{ds.name}.csv").read_text().splitlines()
        train, test = ((out / f"{ds.name}_{part}.csv").read_text().splitlines()
                       for part in ("train", "test"))
        assert lines[0] == train[0] == test[0]
        assert train[1:] and test[1:] and not set(train) & set(test[1:])
        assert sorted(train[1:] + test[1:]) == sorted(lines[1:])
        for part in (lines, train, test):
            keys = [line.split(",")[0] for line in part[1:]]
            assert keys == sorted(keys)


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


def test_execute_and_flatten_refuse_a_model_with_errors(tmp_path):
    # both order rows by key, which needs the keys that bind checks unique
    schema = parse_full("""
        entity E { key id: identifier attr t: numeric }
        task T { target E.t }
    """)
    (tmp_path / "E.csv").write_text("id,t\na,1\na,2\n")
    bundle, _ = binder.load_bundle(schema, tmp_path)
    bound = binder.bind(schema, bundle)
    assert not bound.ok
    task = schema.task("T")
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    with pytest.raises(ValueError, match="error diagnostics"):
        engine.execute(plan, bound, engine.Derivations(bound, CLOCK))
    with pytest.raises(ValueError, match="error diagnostics"):
        engine.flatten_naive(bound, plan.binding, engine.Derivations(bound, CLOCK))


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


# Distinct key values of each kind, among them values whose repr order is
# not their value or text order
KEY_POOLS = {
    "identifier": ["a", "a b", "a'b", "B", "b'c", 'a"b', ""] + [f"k{i}" for i in range(30)],
    "numeric": [float(v) for v in range(-20, 21)] + [0.25, -1.5, 1e16, 5e-324],
    "date": [dt.date(2019, 1, 1) + dt.timedelta(days=d) for d in range(-20, 21)],
}

SPLITS = {
    None: "",
    "disjoint": """generalization G of E disjoint {
                     subtype SMALL when (size < 10) { attr s_extra: numeric }
                     subtype BIG when (size >= 10) { attr b_extra: numeric }
                   }""",
    "overlap": """generalization G of E overlap {
                    subtype SMALL when (size < 10) { attr s_extra: numeric }
                    subtype BIG when (size >= 5) { attr b_extra: numeric }
                  }""",
}


@pytest.mark.parametrize("split", list(SPLITS))
@pytest.mark.parametrize("kind", sorted(KEY_POOLS))
def test_emitted_rows_are_the_kept_rows_sorted_by_key_repr(kind, split, tmp_path):
    rng = random.Random(f"{kind} {split}")
    keys = rng.sample([k for k in KEY_POOLS[kind] if k != ""], 30)  # an empty key is null
    sizes = [rng.randrange(20) for _ in keys]
    targets = [rng.choice([None, 1.5, 2.0, -3.0]) for _ in keys]
    header = ["id", "t", "size"] + (["s_extra", "b_extra"] if split else [])
    data = io.StringIO()
    csv.writer(data, lineterminator="\n").writerows(
        [header] + [[format_cell(k), format_cell(t), z] + [""] * (len(header) - 3)
                    for k, t, z in zip(keys, targets, sizes)])
    text = (f"entity E {{ key id: {kind} attr t: numeric attr size: numeric }}\n{SPLITS[split]}\n"
            f"task T {{ target E.t{' split_by G' if split else ''} }}")
    datasets, _ = _run(text, {"E": data.getvalue()}, tmp_path)
    members = {"T": lambda z: True, "T_SMALL": lambda z: z < 10,
               "T_BIG": (lambda z: z >= 10) if split == "disjoint" else (lambda z: z >= 5)}
    assert [ds.name for ds in datasets] == (["T_SMALL", "T_BIG"] if split else ["T"])
    for ds in datasets:
        kept = [k for k, t, z in zip(keys, targets, sizes) if t is not None and members[ds.name](z)]
        assert len(kept) < len(keys)
        assert [repr(k) for k in column(ds.table, "E_id")] == sorted(map(repr, kept))
