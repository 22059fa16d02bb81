"""Acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; each
criterion also appears as its own test result.
"""

import datetime as dt
import filecmp
import itertools
import random
from pathlib import Path

import pytest

from cmml import binder, cli, eer, engine, evalkit, planner
from cmml.values import NOT_APPLICABLE, UNKNOWN
from conftest import CLOCK, EXAMPLE_DATA, EXAMPLE_SCHEMA
from propgen import Case

SEEDS = range(120)


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {criterion}: {status}{suffix}", flush=True)
    assert ok, f"criterion {criterion} failed{suffix}"


@pytest.fixture(scope="module")
def example_output(example_bound):
    task = example_bound.schema.task("PREDICT_LTV")
    options = planner.PlanOptions.from_task(task)
    plan = planner.compile_plan(example_bound.schema, task, options)
    datasets, manifest = engine.prepare(plan, example_bound,
                                         engine.Derivations(example_bound, CLOCK))
    assert len(datasets) == 1
    return datasets[0]


def _column(dataset, name):
    i = dataset.table.column_index(name)
    k = dataset.table.column_index("CUSTOMER_cust_id")
    return {r[k]: r[i] for r in dataset.table.rows}


def test_criterion_01_nominal_summary_counts(example_output):
    expected = {
        "101": (4, 2, 2),
        "400": (1, 0, 1),
        "223": (2, 2, 0),
        "398": (1, 0, 1),
    }
    count = _column(example_output, "ORDER_count")
    online = _column(example_output, "ORDER_channel_Online_count")
    phone = _column(example_output, "ORDER_channel_Phone_count")
    got = {k: (count[k], online[k], phone[k]) for k in expected}
    _report(1, got == expected, f"counts {got}")


def test_criterion_02_numeric_summarization(example_output):
    expected = {"101": 48.0, "223": 59.5, "398": 1025.0, "400": 510.0}
    means = _column(example_output, "ORDER_total_mean")
    ok = all(abs(means[k] - v) <= 1e-9 for k, v in expected.items())
    _report(2, ok, f"means {means}")


# Reference metric cells: (precision, recall, expected F1).
F1_CELLS = [
    (40.56, 59.28, 48.17),
    (38.89, 84.0, 53.17),
]

# Reference cells (rmse, printed nrmse) for a target range of 1550.
NRMSE_CELLS = [
    (356.31, 0.23), (307.45, 0.20), (316.57, 0.20), (320.38, 0.21), (244.44, 0.15),
    (218.06, 0.14), (196.87, 0.13), (208.44, 0.13), (208.22, 0.13), (85.96, 0.06),
    (322.06, 0.21), (290.52, 0.19), (286.08, 0.18), (305.45, 0.20), (177.83, 0.11),
    (393.75, 0.25), (342.65, 0.22), (342.31, 0.22), (348.50, 0.22), (101.18, 0.07),
]


def test_criterion_03_metric_formula_cells():
    failures = []
    for p, r, want in F1_CELLS:
        got = evalkit.f1_score(p, r)
        if abs(got - want) > 0.01:
            failures.append(f"f1({p},{r})={got:.4f} want {want}")
    for rmse, printed in NRMSE_CELLS:
        got = rmse / 1550.0
        if abs(got - printed) > 0.005:
            failures.append(f"nrmse(rmse={rmse})={got:.4f} printed {printed}")
    _report(3, not failures, "; ".join(failures))


def _execute_case(case, impute=None):
    task = case.schema.task("T")
    overrides = {"impute": impute} if impute else {}
    options = planner.PlanOptions.from_task(task, **overrides)
    plan = planner.compile_plan(case.bound.schema, task, options)
    return engine.prepare(plan, case.bound, engine.Derivations(case.bound, CLOCK))


def test_criterion_04_duplication_removal_invariant():
    ok = True
    detail = f"{len(SEEDS)} generated cases"
    for seed in SEEDS:
        case = Case(seed)
        datasets, _ = _execute_case(case)
        with_target = case.keys_with_target()
        for ds in datasets:
            keys = {r[0] for r in ds.table.rows}
            expected = with_target
            if case.gen_mode is not None:
                expected = case.member_keys(ds.name.split("_", 1)[1]) & with_target
            if keys != expected or len(ds.table.rows) != len(expected):
                ok, detail = False, f"seed {seed}: dataset {ds.name} rows"
                break
        flat = engine.flatten_naive(case.bound, case.binding, engine.Derivations(case.bound, CLOCK))
        if len(flat.table.rows) != case.ds0_row_count():
            ok, detail = False, f"seed {seed}: flat row count"
        if not ok:
            break
    _report(4, ok, detail)


def test_criterion_05_split_semantics():
    ok = True
    detail = "disjoint partition / overlap duplication / no sibling columns"
    for seed in SEEDS:
        case = Case(seed)
        if case.gen_mode is None:
            continue
        datasets, _ = _execute_case(case)
        by_name = {d.name: d for d in datasets}
        with_target = case.keys_with_target()
        keys = {st: {r[0] for r in by_name[f"T_{st}"].table.rows}
                for st in ("LOW", "HIGH")}
        for st, sibling in (("LOW", "high_x"), ("HIGH", "low_x")):
            if any(sibling in c for c in by_name[f"T_{st}"].table.column_names):
                ok, detail = False, f"seed {seed}: sibling column in T_{st}"
        if case.gen_mode == "disjoint":
            if keys["LOW"] & keys["HIGH"] or keys["LOW"] | keys["HIGH"] != with_target:
                ok, detail = False, f"seed {seed}: disjoint not a partition"
        else:
            multi = case.member_keys("LOW") & case.member_keys("HIGH") & with_target
            if not (multi <= keys["LOW"] and multi <= keys["HIGH"]):
                ok, detail = False, f"seed {seed}: overlap keys not duplicated"
        if not ok:
            break
    _report(5, ok, detail)


def test_criterion_06_imputation_safety():
    ok, detail = True, "no not_applicable cell modified"
    for seed in SEEDS:
        case = Case(seed)
        raw_sets, _ = _execute_case(case, impute="none")
        imp_sets, _ = _execute_case(case, impute="mean_mode")
        for raw, imp in zip(raw_sets, imp_sets):
            for r_row, i_row in zip(raw.table.rows, imp.table.rows):
                for r_cell, i_cell in zip(r_row, i_row):
                    if r_cell == NOT_APPLICABLE and i_cell != NOT_APPLICABLE:
                        ok, detail = False, f"seed {seed}: not_applicable imputed"
                    if r_cell != UNKNOWN and r_cell != NOT_APPLICABLE and i_cell != r_cell:
                        ok, detail = False, f"seed {seed}: known cell changed"
        if not ok:
            break
    if ok:
        ok, detail = _per_subtype_mean_fixture()
    _report(6, ok, detail)


def _per_subtype_mean_fixture():
    """Two-subtype fixture with differing means: fills come from the
    member subtype, not the global pool."""
    from conftest import parse_full
    from cmml.tabular import Column, DataBundle, Table

    schema = parse_full("""
        entity R {
          key id: identifier
          attr size: numeric
          attr v: numeric
          attr t: numeric
        }
        generalization G of R disjoint {
          subtype LOW when (size < 0) { }
          subtype HIGH when (size >= 0) { }
        }
        task T { target R.t impute mean_mode }
    """)
    table = Table("R", [Column(a.name, a.kind) for a in schema.effective_columns("R")],
                  key_columns=["id"])
    table.rows.extend([
        ["1", -5.0, 10.0, 1.0],
        ["2", -5.0, 20.0, 1.0],
        ["3", -5.0, None, 1.0],
        ["4", 5.0, 100.0, 1.0],
        ["5", 5.0, 200.0, 1.0],
        ["6", 5.0, None, 1.0],
    ])
    bundle = DataBundle()
    bundle.add(table)
    bound = binder.bind(schema, bundle)
    assert bound.ok, bound.report.render()
    task = schema.task("T")
    options = planner.PlanOptions.from_task(task)
    plan = planner.compile_plan(bound.schema, task, options)
    datasets, _ = engine.execute(plan, bound, engine.Derivations(bound, CLOCK))
    vals = {}
    for ds in datasets:
        vi = ds.table.column_index("R_v")
        ki = ds.table.column_index("R_id")
        for r in ds.table.rows:
            vals[(ds.name, r[ki])] = r[vi]
    if vals[("T_LOW", "3")] != 15.0:
        return False, f"LOW fill {vals[('T_LOW', '3')]} != per-subtype mean 15.0"
    if vals[("T_HIGH", "6")] != 150.0:
        return False, f"HIGH fill {vals[('T_HIGH', '6')]} != per-subtype mean 150.0"
    return True, "per-subtype means used for fills"


def test_criterion_07_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli.main(["prepare", "--schema", str(EXAMPLE_SCHEMA),
                       "--data-dir", str(EXAMPLE_DATA), "--task", "PREDICT_LTV",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir())
    for n in names:
        if not filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False):
            ok = False
    _report(7, ok, f"files {names}")


def _enumerated_t_plus(diffs):
    """Rank-based oracle: mid-ranks of |d| over nonzero diffs, summed where
    the difference is positive."""
    nz = [d for d in diffs if d != 0]
    order = sorted(range(len(nz)), key=lambda i: abs(nz[i]))
    ranks = [0.0] * len(nz)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and abs(nz[order[j]]) == abs(nz[order[i]]):
            j += 1
        mid = (i + 1 + j) / 2.0
        for k in range(i, j):
            ranks[order[k]] = mid
        i = j
    return sum(r for r, d in zip(ranks, nz) if d > 0)


def test_criterion_08_wilcoxon_correctness():
    rng = random.Random(99)
    ok, detail = True, "50 random instances, n <= 10"
    for trial in range(50):
        n = rng.randint(2, 10)
        diffs = [rng.choice([-3, -2, -1, 0, 1, 2, 3]) for _ in range(n)]
        pairs = [(float(d), 0.0) for d in diffs]
        res = evalkit.wilcoxon_signed_rank(pairs)
        want = _enumerated_t_plus(diffs)
        if not res.degenerate and abs(res.t_plus - want) > 1e-12:
            ok, detail = False, f"trial {trial}: t_plus {res.t_plus} want {want}"
            break
    degen = evalkit.wilcoxon_signed_rank([(1.0, 1.0)] * 5)
    if not (degen.degenerate and degen.p_two_tailed == 1.0):
        ok, detail = False, "degenerate all-zero case p != 1"
    _report(8, ok, detail)


# Frozen seeded regression values (synth seed 42, comparison seed 0, 5 folds).
FROZEN_TDS_R2 = 0.8969468831742313
FROZEN_DS0_R2 = 0.29699197281460854


def test_criterion_09_end_to_end_synthetic():
    spec = evalkit.SynthSpec()
    bundle = evalkit.synth_generate(spec, 42)
    schema = eer.rewrite_many_to_many(evalkit.synth_schema())
    bound = binder.bind(schema, bundle)
    assert bound.ok
    task = schema.task("PREDICT_LTV")
    options = planner.PlanOptions.from_task(task)
    plan = planner.compile_plan(bound.schema, task, options)
    datasets, _ = engine.execute(plan, bound, engine.Derivations(bound, dt.date.today()))
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, task),
                                engine.Derivations(bound, dt.date.today()))
    customers = bound.bundle.table("CUSTOMER")
    targets = [r[customers.column_index("ltv")] for r in customers.rows]
    value_range = max(targets) - min(targets)
    report = evalkit.compare_datasets(flat, datasets[0], value_range, folds=5, seed=0)
    margin = report.tds.r2 - report.ds0.r2
    ok = (margin >= 0.1
          and report.wilcoxon.p_two_tailed < 0.05
          and abs(report.tds.r2 - FROZEN_TDS_R2) < 1e-9
          and abs(report.ds0.r2 - FROZEN_DS0_R2) < 1e-9)
    _report(9, ok, f"r2 tds {report.tds.r2:.4f} ds0 {report.ds0.r2:.4f} "
                   f"p {report.wilcoxon.p_two_tailed:.2e}")


def test_criterion_10_manifest_completeness():
    import re
    ok, detail = True, f"{len(SEEDS)} generated cases"
    name_re = re.compile(r"^[A-Za-z0-9_]+$")
    for seed in SEEDS:
        case = Case(seed)
        datasets, manifest = _execute_case(case)
        for ds in datasets:
            feats = manifest["datasets"][ds.name]["features"]
            names = [f["name"] for f in feats]
            if names != ds.table.column_names or len(set(names)) != len(names):
                ok, detail = False, f"seed {seed}: lineage records != columns"
            for f in feats:
                if not f["origin_entities"] or not name_re.match(f["name"]):
                    ok, detail = False, f"seed {seed}: bad record {f['name']}"
        if not ok:
            break
    _report(10, ok, detail)
