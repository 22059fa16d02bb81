"""evalkit's per-block design and array bookkeeping against the dense design
it replaced (``dense_design.py``): the same comparison report, bit for bit
(compared by ``repr``, so a sign of zero or a last bit shows), or the same
error, on every evaluated golden case, propgen cases, random tables and the
edge cases a fold can meet."""

import random

import numpy as np
import pytest

import dense_design as dense
from cmml import binder, dsl, eer, engine, evalkit, planner
from cmml.engine import TrainingDataset
from cmml.tabular import Column, JoinRows, Table
from cmml.values import NOT_APPLICABLE, UNKNOWN, pack
from conftest import CLOCK
from propgen import Case
from test_golden import CASES as GOLDEN_CASES, EVALUATED

NULLS = (None, UNKNOWN, NOT_APPLICABLE)


def _outcome(compare, ds0, tds, value_range, folds, seed) -> str:
    try:
        return repr(compare(ds0, tds, value_range, folds=folds, seed=seed).to_dict())
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same(ds0, tds, value_range=100.0, folds=5, seed=0) -> str:
    got = _outcome(evalkit.compare_datasets, ds0, tds, value_range, folds, seed)
    assert got == _outcome(dense.compare_datasets, ds0, tds, value_range, folds, seed)
    return got


def _same_design(table, train, test):
    """The fitted design of the train and the test rows equals the dense
    reference's plus a leading column of ones, bit for bit."""
    design, reference = evalkit.OneHotDesign(table, "y"), dense.OneHotDesign(table, "y")
    train, test = np.asarray(train, dtype=np.int64), np.asarray(test, dtype=np.int64)
    reference.fit(train)
    for got, rows in ((design.fit(train), train), (design.transform(test), test)):
        want = reference.transform(rows)
        assert got.flags["C_CONTIGUOUS"] and got.shape == (len(rows), want.shape[1] + 1)
        assert got[:, 0].tolist() == [1.0] * len(rows)
        assert np.ascontiguousarray(got[:, 1:]).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Golden and propgen cases


def _datasets(schema, bound, task):
    derivations = engine.Derivations(bound, CLOCK)
    plan = planner.compile_plan(schema, task, planner.PlanOptions.from_task(task))
    datasets, _ = engine.execute(plan, bound, derivations)
    return engine.flatten_naive(bound, plan.binding, derivations), datasets


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_golden_case_reports_equal_the_dense_reference(name, tmp_path):
    schema_path, data_dir, task_name = GOLDEN_CASES[name](tmp_path)
    schema, _ = dsl.parse_schema_file(schema_path)
    schema = eer.rewrite_many_to_many(schema)
    bundle, _ = binder.load_bundle(schema, data_dir)
    bound = binder.bind(schema, bundle, CLOCK)
    assert bound.ok, bound.report.render()
    flat, (tds,) = _datasets(schema, bound, schema.task(task_name))
    assert isinstance(flat.table.rows, JoinRows)
    for folds, seed in ((5, 0), (2, 1), (3, 7)):
        assert _same(flat, tds, 100.0, folds, seed).startswith("{")
    n = flat.table.row_count
    _same_design(flat.table, np.arange(0, n, 2), np.arange(n))


@pytest.mark.parametrize("seed", range(40))
def test_propgen_reports_equal_the_dense_reference(seed):
    case = Case(seed)
    flat, datasets = _datasets(case.schema, case.bound, case.schema.task("T"))
    for tds in datasets:  # a subtype split compares each subtype's dataset
        for folds in (2, 3):
            _same(flat, tds, 50.0, folds, seed)
    n = flat.table.row_count
    _same_design(flat.table, np.arange(0, n, 2), np.arange(n))


def test_propgen_reports_are_mostly_scored():
    scored = sum(_same(*_datasets_of(seed), 50.0, 2, seed).startswith("{") for seed in range(40))
    assert scored >= 30


def _datasets_of(seed):
    case = Case(seed)
    flat, datasets = _datasets(case.schema, case.bound, case.schema.task("T"))
    return flat, datasets[0]


# ---------------------------------------------------------------------------
# Random tables


def _cell(rng, kind):
    if rng.random() < 0.25:
        return rng.choice(NULLS)
    if kind == "numeric":
        return round(rng.uniform(-50, 50), rng.choice((0, 3)))
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "nominal":
        return rng.choice(("red", "green", "blue", "amber", "zz"))
    return "note"


def _target(rng):
    return rng.choice((None, UNKNOWN)) if rng.random() < 0.15 else round(rng.uniform(0, 100), 2)


def _kinds(rng, n):
    return [rng.choice(("numeric", "numeric", "boolean", "nominal", "text")) for _ in range(n)]


def _random_pair(rng, join: bool, n_keys: int = 0, max_fanout: int = 3):
    """A prepared dataset of unique keys and a flat dataset over some of its
    keys and a few orphans. Joined, the flat dataset is a root block (key,
    target, features) and a child block whose last row is all null, the
    absent partner of a root row without children."""
    keys = [f"k{i:02d}" for i in range(n_keys or rng.randint(4, 30))]
    y = {k: _target(rng) for k in keys + ["orphan1", "orphan2"]}
    t_kinds = _kinds(rng, rng.randint(0, 4))
    t_columns = ([Column("id", "identifier")] + [Column(f"t{i}", k) for i, k in enumerate(t_kinds)]
                 + [Column("y", "numeric")])
    order = rng.sample(keys, len(keys))
    tds = Table("T", t_columns, [[k] + [_cell(rng, kind) for kind in t_kinds] + [y[k]]
                                 for k in order], ["id"])

    roots = [k for k in keys if rng.random() < 0.9] + ["orphan1", "orphan2"]
    r_kinds, c_kinds = _kinds(rng, rng.randint(0, 2)), _kinds(rng, rng.randint(1, 3))
    columns = ([Column("id", "identifier"), Column("y", "numeric")]
               + [Column(f"r{i}", k) for i, k in enumerate(r_kinds)]
               + [Column(f"c{i}", k) for i, k in enumerate(c_kinds)])
    root_rows = [[k, y[k]] + [_cell(rng, kind) for kind in r_kinds] for k in roots]
    child_rows, root_of, child_of = [], [], []
    for r in range(len(roots)):
        fanout = rng.randint(0, max_fanout)
        for _ in range(fanout):
            root_of.append(r)
            child_of.append(len(child_rows))
            child_rows.append([_cell(rng, kind) for kind in c_kinds])
        if fanout == 0:
            root_of.append(r)
            child_of.append(-1)  # the absent partner
    child_rows.append([None] * len(c_kinds))
    shuffle = rng.sample(range(len(root_of)), len(root_of))
    root_index = np.array([root_of[i] for i in shuffle], dtype=np.int64)
    child_index = np.array([child_of[i] % len(child_rows) for i in shuffle], dtype=np.int64)
    if join:
        blocks = [[list(c) for c in zip(*root_rows)], [list(c) for c in zip(*child_rows)]]
        flat = Table("ds0", columns, _join_rows(columns, blocks, [root_index, child_index]), ["id"])
    else:
        rows = [root_rows[r] + child_rows[c]
                for r, c in zip(root_index.tolist(), child_index.tolist())]
        flat = Table("ds0", columns, rows, ["id"])
    return TrainingDataset("ds0", flat, "y"), TrainingDataset("T", tds, "y")


@pytest.mark.parametrize("join", [False, True])
@pytest.mark.parametrize("seed", range(60))
def test_random_tables_equal_the_dense_reference(seed, join):
    rng = random.Random(seed)
    flat, tds = _random_pair(rng, join)
    outcomes = [_same(flat, tds, 100.0, folds, seed) for folds in (2, 5)]
    n = flat.table.row_count
    train = sorted(rng.sample(range(n), rng.randint(0, n)))
    _same_design(flat.table, train, rng.sample(range(n), rng.randint(0, n)))
    m = tds.table.row_count
    _same_design(tds.table, sorted(rng.sample(range(m), rng.randint(0, m))), range(m))
    assert all(o.startswith(("{", "ValueError")) for o in outcomes)


def test_designs_over_several_gather_chunks():
    rng = random.Random(11)
    flat, tds = _random_pair(rng, True, n_keys=6000, max_fanout=6)
    n = flat.table.row_count
    assert n > 2 * evalkit.OneHotDesign._CHUNK
    assert _same(flat, tds, 100.0, 5, 3).startswith("{")
    _same_design(flat.table, sorted(rng.sample(range(n), n // 2)), rng.sample(range(n), n))


def test_random_tables_are_mostly_scored():
    reports = 0
    for seed in range(60):
        flat, tds = _random_pair(random.Random(seed), True)
        reports += _same(flat, tds, 100.0, 2, seed).startswith("{")
    assert reports >= 50


# ---------------------------------------------------------------------------
# Edge cases a fold meets


def _join_rows(columns, blocks, index):
    """A join view of ``blocks``, each a list of boxed-cell columns, typed by
    ``columns`` in block order."""
    kinds = iter(c.kind for c in columns)
    return JoinRows([[pack(cells, next(kinds)) for cells in block] for block in blocks], index)


def _tds(columns, rows):
    return TrainingDataset("T", Table("T", [Column("id", "identifier")] + columns
                                      + [Column("y", "numeric")], rows, ["id"]), "y")


def _flat(columns, rows):
    return TrainingDataset("ds0", Table("ds0", [Column("id", "identifier")] + columns
                                        + [Column("y", "numeric")], rows, ["id"]), "y")


def test_category_seen_only_in_test_folds():
    cats = ["rare" if i == 3 else ("a", "b")[i % 2] for i in range(12)]
    y = [2.0 * i + (5.0 if c == "rare" else 0.0) for i, c in enumerate(cats)]
    tds = _tds([Column("c", "nominal")], [[f"k{i}", c, y[i]] for i, c in enumerate(cats)])
    flat = _flat([Column("c", "nominal")],
                 [[f"k{i}", c, y[i]] for i, c in enumerate(cats) for _ in range(2)])
    for seed in range(4):
        assert _same(flat, tds, 30.0, 3, seed).startswith("{")
    _same_design(tds.table, [i for i in range(12) if i != 3], range(12))


def test_numeric_column_without_a_known_train_value():
    # x is known for k0 alone: the folds that test k0 train on no known x
    x = [7.5] + [UNKNOWN, NOT_APPLICABLE, None] * 3
    tds = _tds([Column("x", "numeric")], [[f"k{i}", v, 3.0 * i] for i, v in enumerate(x)])
    flat = _flat([Column("x", "numeric")], [[f"k{i}", v, 3.0 * i] for i, v in enumerate(x)])
    for seed in range(4):
        assert _same(flat, tds, 30.0, 5, seed).startswith("{")
    _same_design(tds.table, range(1, 10), range(10))


def test_flat_rows_whose_key_is_not_prepared():
    tds = _tds([Column("x", "numeric")], [[f"k{i}", float(i), 3.0 * i + i % 3] for i in range(9)])
    rows = [[f"k{i}", float(i) + d, 3.0 * i + i % 3] for i in range(9) for d in (0.0, 1.0)]
    rows += [["zz", 1e6, -1e6], ["yy", 7.0, UNKNOWN], ["zz", -1e6, 1e6]]
    flat = _flat([Column("x", "numeric")], rows)
    for seed in range(4):
        assert _same(flat, tds, 30.0, 3, seed).startswith("{")


def test_fold_without_scorable_rows():
    # k0 and k5 have no target, and with seed 13 they make up one whole fold
    y = [UNKNOWN if i % 5 == 0 else 2.0 * i for i in range(10)]
    tds = _tds([Column("x", "numeric")], [[f"k{i}", float(i), y[i]] for i in range(10)])
    flat = _flat([Column("x", "numeric")],
                 [[f"k{i}", float(i) + d, y[i]] for i in range(10) for d in (0.0, 0.5)])
    report = _same(flat, tds, 20.0, 5, 13)
    assert "'fold_sizes': [2, 2, 2, 2, 2]" in report and "'n_entities': 8" in report


def test_join_view_with_absent_partners():
    # r1 has no child: its row takes the child block's last, all-null row
    blocks = [[["r0", "r1", "r2", "r3"], [10.0, 20.0, 35.0, 41.0]],
              [[1.0, 2.0, 3.0, 4.0, 5.0, None], ["a", "b", "a", "c", "b", None]]]
    index = [np.array([0, 0, 1, 2, 2, 3, 3], dtype=np.int64),
             np.array([0, 1, 5, 2, 3, 4, 0], dtype=np.int64)]
    columns = [Column("id", "identifier"), Column("y", "numeric"), Column("x", "numeric"),
               Column("c", "nominal")]
    flat = TrainingDataset("ds0", Table("ds0", columns, _join_rows(columns, blocks, index), ["id"]),
                           "y")
    tds = _tds([Column("n", "numeric")], [["r0", 2.0, 10.0], ["r1", 0.0, 20.0],
                                          ["r2", 2.0, 35.0], ["r3", 2.0, 41.0]])
    for seed in range(4):
        assert _same(flat, tds, 40.0, 2, seed).startswith("{")
    _same_design(flat.table, [0, 1, 2, 3], range(7))
