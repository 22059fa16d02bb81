"""evalkit's fold fits from per-fold sums against the dense design they
replaced (``dense_design.py``): the same comparison report, or the same
error, on every evaluated golden case, propgen cases, random tables and the
edge cases a fold can meet.

The sums add each fold's products in another order than one train design's
Gram matrix does, so the last bits move. Counts, fold sizes and errors must
be equal, and every report float must agree within ``RTOL`` (relative, or
absolute near zero), but in the cases ``LOOSE`` names: folds of a few rows
with more columns than rows, where the 1e-6 ridge amplifies a last-bit
change of the sums. The signed-rank test may differ only where the
reference's paired differences hold a near tie that the pairs' own moves can
flip. The normal equations themselves, which do not depend on the
conditioning, are compared far more tightly (``GRAM_RTOL``).
"""

import math
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
RTOL = 1e-9        # on every float of a report: relative, or absolute near zero
GRAM_RTOL = 1e-12  # on XᵀX and Xᵀy, relative to the sums of absolute products
MEAN_RTOL = 1e-12  # on a filled mean

# The ill-conditioned cases, by the tolerance each gets: the smallest power
# of ten at least ten times its largest relative move under OpenBLAS 0.3.31's
# SkylakeX, Haswell, Sandybridge, Nehalem and Katmai kernels (chosen with
# OPENBLAS_CORETYPE), which add in different orders. A random case names its
# seed, both of its forms.
LOOSE = {
    1e-3: {"propgen 15", "propgen 20", "propgen 22", "propgen 35"},
    1e-4: {"golden propgen_36", "propgen 4", "propgen 5", "propgen 6", "propgen 10",
           "propgen 11", "propgen 24", "propgen 26", "propgen 27", "propgen 34", "propgen 36"},
    1e-5: {"golden chain", "propgen 0", "propgen 7", "propgen 8", "propgen 12", "propgen 29",
           "propgen 30", "propgen 37", "propgen 38"},
    1e-6: {"golden collision", "golden skipped_edge", "propgen 9", "propgen 14", "propgen 19",
           "propgen 28", "random 43"},
    1e-7: {"propgen 2", "propgen 16", "propgen 17", "propgen 18", "propgen 23", "propgen 25",
           "propgen 32", "random 49", "random 54", "random 55", "shuffled 1", "shuffled 18"},
    1e-8: {"propgen 3", "propgen 21", "propgen 39", "random 14", "random 15", "random 21",
           "random 32"},
}


def _rtol(case: str) -> float:
    return next((rtol for rtol, cases in LOOSE.items() if case in cases), RTOL)


def _outcome(module, ds0, tds, value_range, folds, seed):
    """``module.compare_datasets``'s report as a dict and the pairs its
    signed-rank test read, or the error."""
    real, pairs = module.wilcoxon_signed_rank, []
    module.wilcoxon_signed_rank = lambda p: pairs.extend(p) or real(p)
    try:
        report = module.compare_datasets(ds0, tds, value_range, folds=folds, seed=seed)
        return report.to_dict(), pairs
    except ValueError as exc:
        return f"ValueError: {exc}", None
    finally:
        module.wilcoxon_signed_rank = real


def _close(got, want, rtol, path="report") -> None:
    """Equal structure, ints, bools and strings; floats within ``rtol``."""
    assert type(got) is type(want), path
    if isinstance(got, dict):
        assert list(got) == list(want), path
        for k in got:
            _close(got[k], want[k], rtol, f"{path}.{k}")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, rtol, f"{path}[{i}]")
    elif isinstance(got, float):
        assert (math.isclose(got, want, rel_tol=rtol, abs_tol=rtol)
                or (math.isnan(got) and math.isnan(want))), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


def _near_tie(got_pairs, want_pairs) -> bool:
    """Whether two of the reference's paired differences' magnitudes, or one
    and zero, lie closer than the pairs moved between the two runs: only
    then can a signed rank flip."""
    got, want = np.asarray(got_pairs).reshape(-1, 2), np.asarray(want_pairs).reshape(-1, 2)
    moved = float(np.abs(got - want).sum(axis=1).max(initial=0.0))  # most a difference moved
    d = np.sort(np.abs(want[:, 0] - want[:, 1]))
    return len(d) > 0 and (d[0] <= moved or bool(np.any(np.diff(d) <= 2 * moved)))


def _agree(got, want, rtol=RTOL) -> str:
    """Two ``_outcome`` results agree: the same error, or reports and paired
    errors within ``rtol`` whose signed-rank tests agree too unless a near
    tie explains it. The first report's signed-rank test must be exactly
    that of its own pairs. Returns the first as text."""
    (got, got_pairs), (want, want_pairs) = got, want
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    assert repr(got["wilcoxon"]) == repr(evalkit.wilcoxon_signed_rank(got_pairs).to_dict())
    _close(got_pairs, want_pairs, rtol, "pairs")
    _close({k: v for k, v in got.items() if k != "wilcoxon"},
           {k: v for k, v in want.items() if k != "wilcoxon"}, rtol)
    try:
        _close(got["wilcoxon"], want["wilcoxon"], rtol, "report.wilcoxon")
    except AssertionError:
        assert _near_tie(got_pairs, want_pairs), "the signed-rank test moved without a near tie"
    return repr(got)


def _same(ds0, tds, value_range=100.0, folds=5, seed=0, case="") -> str:
    return _agree(_outcome(evalkit, ds0, tds, value_range, folds, seed),
                  _outcome(dense, ds0, tds, value_range, folds, seed), _rtol(case))


def _same_design(table, train, test, target="y"):
    """The design of the test rows, fitted on the train rows with a known
    target, equals the dense reference's plus a leading column of ones:
    every cell but a filled null bit for bit, a filled mean within
    ``MEAN_RTOL``."""
    design, reference = evalkit.OneHotDesign(table, target), dense.OneHotDesign(table, target)
    train, test = np.asarray(train, dtype=np.int64), np.asarray(test, dtype=np.int64)
    train = train[~np.isnan(design.target[train])]
    reference.fit(train)
    design.solve([design.fit(train)], 1e-6)
    got, want = design.transform(test), reference.transform(test)
    assert got.flags["C_CONTIGUOUS"] and got.shape == (len(test), want.shape[1] + 1)
    assert got[:, 0].tolist() == [1.0] * len(test)
    np.testing.assert_allclose(got[:, 1:], want, rtol=MEAN_RTOL, atol=0)
    filled = np.isnan(reference.design[test[:, None], reference.columns])
    assert np.array_equal(got[:, 1:][~filled], want[~filled])


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
        assert _same(flat, tds, 100.0, folds, seed, f"golden {name}").startswith("{")
    n = flat.table.row_count
    _same_design(flat.table, np.arange(0, n, 2), np.arange(n), flat.target_column)


@pytest.mark.parametrize("seed", range(40))
def test_propgen_reports_equal_the_dense_reference(seed):
    case = Case(seed)
    flat, datasets = _datasets(case.schema, case.bound, case.schema.task("T"))
    for tds in datasets:  # a subtype split compares each subtype's dataset
        for folds in (2, 3):
            _same(flat, tds, 50.0, folds, seed, f"propgen {seed}")
    n = flat.table.row_count
    _same_design(flat.table, np.arange(0, n, 2), np.arange(n), flat.target_column)


def test_propgen_reports_are_mostly_scored():
    scored = sum(_same(*_datasets_of(seed), 50.0, 2, seed, f"propgen {seed}").startswith("{")
                 for seed in range(40))
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
    outcomes = [_same(flat, tds, 100.0, folds, seed, f"random {seed}") for folds in (2, 5)]
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
        reports += _same(flat, tds, 100.0, 2, seed, f"random {seed}").startswith("{")
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


# ---------------------------------------------------------------------------
# The fold fit: each fold's normal equations from the other folds' sums


def _normal_equations(design, sums):
    """The XᵀX and Xᵀy that ``design.solve(sums, ...)`` hands to ``_solve``."""
    seen, real = [], evalkit._solve
    evalkit._solve = lambda gram, moment, ridge: seen.append((gram, moment)) or real(
        gram, moment, ridge)
    try:
        design.solve(sums, 1e-6)
    finally:
        evalkit._solve = real
    return seen[0]


def _check_fold_fits(table, fold, target="y"):
    """For each fold f, fitted from the sums of the other folds' rows with a
    known target: XᵀX and Xᵀy equal the dense reference's train design's,
    each entry within ``GRAM_RTOL`` of the sum of its absolute products,
    and fold f's design equals the reference's (means within
    ``MEAN_RTOL``)."""
    design, reference = evalkit.OneHotDesign(table, target), dense.OneHotDesign(table, target)
    y, fold = design.target, np.asarray(fold, dtype=np.int64)
    trainable = ~np.isnan(y)
    sums = [design.fit(np.flatnonzero(trainable & (fold == g))) for g in range(fold.max() + 1)]
    for f in range(len(sums)):
        gram, moment = _normal_equations(design, [s for g, s in enumerate(sums) if g != f])
        train, test = np.flatnonzero(trainable & (fold != f)), np.flatnonzero(fold == f)
        reference.fit(train)
        X = np.hstack([np.ones((len(train), 1)), reference.transform(train)])
        assert gram.shape == (X.shape[1],) * 2
        assert np.all(np.abs(gram - X.T @ X) <= GRAM_RTOL * (np.abs(X).T @ np.abs(X))), f
        assert np.all(np.abs(moment - X.T @ y[train])
                      <= GRAM_RTOL * (np.abs(X).T @ np.abs(y[train]))), f
        np.testing.assert_allclose(design.transform(test)[:, 1:], reference.transform(test),
                                   rtol=MEAN_RTOL, atol=0)


@pytest.mark.parametrize("join", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_random_fold_fits_equal_the_dense_reference(seed, join):
    rng = random.Random(seed)
    for dataset in _random_pair(rng, join):
        n = dataset.table.row_count
        folds = rng.randint(2, 5)
        _check_fold_fits(dataset.table, [i % folds for i in rng.sample(range(n), n)])


def _edge_table():
    """Ten rows in five folds of two (rows 0-1, 2-3, ...): x is null in rows
    2-4, w is known in fold 0 alone, the boolean has nulls, "rare" is in
    fold 1 alone, and fold 4 has no known target."""
    x = [1.5, 2.0, None, UNKNOWN, NOT_APPLICABLE, 7.25, 3.0, -4.0, 9.5, 0.5]
    w = [5.0, -1.0] + [None, UNKNOWN] * 4
    flag = [True, None, False, UNKNOWN, True, NOT_APPLICABLE, False, True, None, True]
    cat = ["a", "b", "rare", "rare", "a", None, "b", "a", "b", "a"]
    y = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, UNKNOWN, None]
    columns = [Column("id", "identifier"), Column("x", "numeric"), Column("w", "numeric"),
               Column("flag", "boolean"), Column("cat", "nominal"), Column("y", "numeric")]
    rows = [[f"k{i}", x[i], w[i], flag[i], cat[i], y[i]] for i in range(10)]
    return Table("T", columns, rows, ["id"]), [i // 2 for i in range(10)]


def test_fold_fits_at_the_edges():
    # nulls in a numeric column; w has no known train cell when fold 0 is
    # tested; "rare" is missing from fold 1's train rows; boolean nulls read
    # 0; fold 4 has no trainable row, so its statistics are all zero
    table, fold = _edge_table()
    design = evalkit.OneHotDesign(table, "y")
    assert design.nullable.tolist() == [0, 1]
    assert not design.fit(np.arange(0, dtype=np.int64))[0].any()
    _check_fold_fits(table, fold)
    design.solve([design.fit(np.array([i])) for i in range(2, 8)], 1e-6)
    assert design.means.tolist() == [(3.0 - 4.0 + 7.25) / 3, 0.0]
    assert [kept.tolist() for kept in design.kept] == [[0, 1]]  # a, b; rare is the reference
    design.solve([design.fit(np.array([0, 1, 6, 7]))], 1e-6)
    assert design.means.tolist() == [0.625, 2.0] and design.kept[0].tolist() == [0]


def test_fold_fits_of_the_fold_without_scorable_rows():
    # the table of test_fold_without_scorable_rows, folded as seed 13 folds it
    y = [UNKNOWN if i % 5 == 0 else 2.0 * i for i in range(10)]
    tds = _tds([Column("x", "numeric")], [[f"k{i}", float(i), y[i]] for i in range(10)])
    flat = _flat([Column("x", "numeric")],
                 [[f"k{i}", float(i) + d, y[i]] for i in range(10) for d in (0.0, 0.5)])
    shuffled = list(range(10))
    random.Random(13).shuffle(shuffled)
    fold = np.empty(10, np.int64)
    fold[shuffled] = np.arange(10) % 5
    assert sorted(fold[[0, 5]].tolist()) == [fold[0]] * 2  # k0 and k5 make up one fold
    _check_fold_fits(tds.table, fold)
    _check_fold_fits(flat.table, np.repeat(fold, 2))


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_flat_rows_move_no_report_float_beyond_rtol(seed):
    # the sums add the same products in another order
    rng = random.Random(seed)
    flat, tds = _random_pair(rng, False, n_keys=rng.choice((12, 40, 200)))
    rows = [list(r) for r in flat.table.rows]
    rng.shuffle(rows)
    shuffled = TrainingDataset("ds0", Table("ds0", flat.table.columns, rows, ["id"]), "y")
    for folds in (2, 5):
        _agree(_outcome(evalkit, shuffled, tds, 100.0, folds, seed),
               _outcome(evalkit, flat, tds, 100.0, folds, seed), _rtol(f"shuffled {seed}"))
