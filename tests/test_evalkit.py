import datetime as dt
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cmml import evalkit
from cmml.engine import TrainingDataset
from cmml.tabular import Column, JoinRows, Table
from cmml.values import NOT_APPLICABLE, UNKNOWN, is_null, pack
from conftest import parse
from test_golden import CASES as GOLDEN_CASES, EVALUATED


# ---------------------------------------------------------------------------
# Regression / classification metrics


def test_regression_metrics_oracle():
    actual = [3.0, -0.5, 2.0, 7.0]
    predicted = [2.5, 0.0, 2.0, 8.0]
    # independent arithmetic: squared errors .25, .25, 0, 1 -> mse 0.375
    rep = evalkit.regression_metrics(actual, predicted, value_range=10.0)
    assert rep.rmse == pytest.approx(math.sqrt(0.375), abs=1e-12)
    assert rep.nrmse == pytest.approx(math.sqrt(0.375) / 10.0, abs=1e-12)
    ss_tot = sum((a - 2.875) ** 2 for a in actual)
    assert rep.r2 == pytest.approx(1.0 - 1.5 / ss_tot, abs=1e-12)


def test_regression_metrics_validation():
    with pytest.raises(ValueError):
        evalkit.regression_metrics([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        evalkit.regression_metrics([], [], 1.0)
    with pytest.raises(ValueError):
        evalkit.regression_metrics([1.0], [1.0], 0.0)


def test_f1_published_cells():
    assert evalkit.f1_score(40.56, 59.28) == pytest.approx(48.17, abs=0.01)
    assert evalkit.f1_score(38.89, 84.0) == pytest.approx(53.17, abs=0.01)
    assert evalkit.f1_score(0.0, 0.0) == 0.0


def test_classification_metrics():
    rep = evalkit.classification_metrics(tp=8, fp=2, fn=4)
    assert rep.precision == pytest.approx(80.0)
    assert rep.recall == pytest.approx(100.0 * 8 / 12)
    assert rep.f1 == pytest.approx(evalkit.f1_score(rep.precision, rep.recall))
    zero = evalkit.classification_metrics(tp=0, fp=0, fn=0)
    assert zero.f1 == 0.0 and zero.warnings


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def oracle_t_plus(diffs):
    """Rank |d| by brute sort with mid-ranks, sum ranks of positive d."""
    nz = [d for d in diffs if d != 0]
    mags = sorted(abs(d) for d in nz)
    ranks = {}
    for m in set(mags):
        idxs = [i + 1 for i, x in enumerate(mags) if x == m]
        ranks[m] = sum(idxs) / len(idxs)
    return sum(ranks[abs(d)] for d in nz if d > 0)


def test_wilcoxon_known_case():
    # n=6, all positive, no ties: T+ = 21, z = 15/sqrt(91/2) = 2.20...
    pairs = [(i + 1.0, 0.0) for i in range(6)]
    res = evalkit.wilcoxon_signed_rank(pairs)
    assert res.t_plus == 21.0
    assert res.z == pytest.approx(10.5 / math.sqrt(6 * 7 * 13 / 24.0), abs=1e-12)
    assert res.p_two_tailed == pytest.approx(
        2 * 0.5 * math.erfc(res.z / math.sqrt(2)), abs=1e-12)


def test_wilcoxon_matches_oracle_randomized():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 10)
        diffs = [rng.choice([-3, -2, -1, 0, 1, 2, 3]) * 1.0 for _ in range(n)]
        pairs = [(d, 0.0) for d in diffs]
        res = evalkit.wilcoxon_signed_rank(pairs)
        assert res.t_plus == oracle_t_plus(diffs)


def test_wilcoxon_degenerate_all_zero():
    res = evalkit.wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)])
    assert res.degenerate and res.p_two_tailed == 1.0 and res.z == 0.0


def test_wilcoxon_tie_correction_shrinks_sigma():
    no_ties = evalkit.wilcoxon_signed_rank([(1.0, 0.0), (2.0, 0.0), (0.0, 3.0),
                                            (4.0, 0.0), (0.0, 5.0)])
    ties = evalkit.wilcoxon_signed_rank([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                         (4.0, 0.0), (0.0, 5.0)])
    assert ties.sigma_t < no_ties.sigma_t


def test_wilcoxon_sigma_matches_tie_formula_randomized():
    rng = random.Random(3)
    for _ in range(50):
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * 1.0 for _ in range(rng.randint(1, 12))]
        res = evalkit.wilcoxon_signed_rank([(d, 0.0) for d in diffs])
        n = len(diffs)
        groups = [sum(1 for d in diffs if abs(d) == m) for m in {abs(d) for d in diffs}]
        var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in groups) / 48.0
        assert res.sigma_t == pytest.approx(math.sqrt(var), abs=1e-12)


def test_wilcoxon_non_finite_difference_raises():
    # In a child process with a timeout: a nan difference once made the
    # tie-group scan loop forever.
    code = ("from cmml import evalkit\n"
            "for bad in ('nan', 'inf', '-inf'):\n"
            "    try:\n"
            "        evalkit.wilcoxon_signed_rank([(float(bad), 1.0), (2.0, 1.0)])\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = str(Path(evalkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"signed-rank test needs finite paired differences, got {d}" for d in ("nan", "inf", "-inf")]


def test_wilcoxon_empty_rejected():
    with pytest.raises(ValueError):
        evalkit.wilcoxon_signed_rank([])


def reference_signed_rank(pairs) -> evalkit.WilcoxonResult:
    """The signed-rank test one pair at a time: one scan over the sorted
    magnitudes gives each tie group's mid-rank and subtracts its tie term."""
    diffs = [a - b for a, b in pairs if a != b]
    n = len(diffs)
    if n == 0:
        return evalkit.WilcoxonResult(n_nonzero=0, t_plus=0.0, sigma_t=0.0, z=0.0,
                                      p_two_tailed=1.0, degenerate=True)
    mags = sorted(abs(d) for d in diffs)
    rank_of: dict[float, float] = {}
    var = n * (n + 1) * (2 * n + 1) / 24.0
    i = 0
    while i < n:
        j = i
        while j < n and mags[j] == mags[i]:
            j += 1
        rank_of[mags[i]] = (i + 1 + j) / 2.0  # mean of ranks i+1 .. j
        t = j - i
        if t > 1:
            var -= (t**3 - t) / 48.0
        i = j
    t_plus = sum(rank_of[abs(d)] for d in diffs if d > 0)
    sigma_t = math.sqrt(var)
    z = (t_plus - n * (n + 1) / 4.0) / sigma_t if sigma_t > 0 else 0.0
    return evalkit.WilcoxonResult(n_nonzero=n, t_plus=t_plus, sigma_t=sigma_t, z=z,
                                  p_two_tailed=min(1.0, 2.0 * evalkit._normal_sf(abs(z))))


def _random_pairs(rng: random.Random) -> list[tuple[float, float]]:
    """1 to 2,000 pairs whose differences are quarters, so that ties are
    exact: from nearly every magnitude tied (and many zero) to none, some of
    one sign only; or uniform floats."""
    n = rng.choice([1, 2, 3, rng.randint(4, 60), rng.randint(60, 2000)])
    if rng.random() < 0.2:
        return [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(n)]
    spread = rng.choice([2, 20, 200, 10**6])
    sign = rng.choice([(-1, 1), (1,), (-1,)])
    pairs = []
    for _ in range(n):
        b = rng.randint(0, 4000) / 4
        pairs.append((b + rng.choice(sign) * rng.randint(0, spread) / 4, b))
    return pairs


def test_wilcoxon_equals_the_per_pair_reference_exactly():
    rng = random.Random(31)
    cases = [_random_pairs(rng) for _ in range(300)]
    cases += [[(1.0, 1.0)] * 4, [(0.0, 2.0)] * 3, [(2.0, 0.0)] * 3,
              [(float(i % 7), float(i % 5)) for i in range(500)]]
    for pairs in cases:
        got = evalkit.wilcoxon_signed_rank(pairs).to_dict()
        want = reference_signed_rank(pairs).to_dict()
        # same values, same types (an int T+ of 0 when no difference is positive)
        assert repr(got) == repr(want), pairs


# ---------------------------------------------------------------------------
# OLS


def test_ols_recovers_exact_linear_function():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 3))
    y = 2.0 + X @ np.array([1.5, -2.0, 0.5])
    beta = evalkit.ols_fit(X, y)
    assert beta == pytest.approx([2.0, 1.5, -2.0, 0.5], abs=1e-4)
    pred = evalkit.ols_predict(beta, X)
    assert float(np.max(np.abs(pred - y))) < 1e-4


def test_ols_singular_without_ridge():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear
    with pytest.raises(ValueError):
        evalkit.ols_fit(X, [1.0, 2.0, 3.0], ridge=0.0)
    beta = evalkit.ols_fit(X, [1.0, 2.0, 3.0], ridge=1e-8)  # ridge rescues
    assert np.all(np.isfinite(beta))


def test_one_hot_design():
    t = Table("T", [Column("id", "identifier"), Column("num", "numeric"),
                    Column("cat", "nominal"), Column("flag", "boolean"), Column("y", "numeric")],
              rows=[["a", 1.0, "red", True, 0.0],
                    ["b", None, "blue", False, 0.0],
                    ["c", 3.0, "green", True, 0.0]],
              key_columns=["id"])
    X = _features(t, np.arange(3), np.arange(3))
    # columns: num, flag, cat in {blue, green} (red dropped as lexically last)
    assert X.shape == (3, 4)
    assert X[1, 0] == 2.0  # null numeric filled with train mean (1+3)/2
    assert list(X[0]) == [1.0, 1.0, 0.0, 0.0]   # red -> all zeros
    assert list(X[1]) == [2.0, 0.0, 1.0, 0.0]   # blue
    assert list(X[2]) == [3.0, 1.0, 0.0, 1.0]   # green


# ---------------------------------------------------------------------------
# Synthetic generator


def test_synth_deterministic_per_seed():
    spec = evalkit.SynthSpec(customers=30)
    b1 = evalkit.synth_generate(spec, 7)
    b2 = evalkit.synth_generate(spec, 7)
    b3 = evalkit.synth_generate(spec, 8)
    assert b1.table("ORDER").rows == b2.table("ORDER").rows
    assert b1.table("ORDER").rows != b3.table("ORDER").rows


def test_synth_respects_spec_and_truth():
    spec = evalkit.SynthSpec(customers=40, fanout_min=2, fanout_max=5,
                             noise_sigma=0.0)
    bundle = evalkit.synth_generate(spec, 1)
    customers = bundle.table("CUSTOMER")
    orders = bundle.table("ORDER")
    assert len(customers.rows) == 40
    fk = orders.column_index("cust_id")
    tot = orders.column_index("total")
    by_cust = {}
    for r in orders.rows:
        by_cust.setdefault(r[fk], []).append(r[tot])
    ltv_i = customers.column_index("ltv")
    for row in customers.rows:
        totals = by_cust[row[0]]
        assert 2 <= len(totals) <= 5
        expected = 3.0 * sum(totals) / len(totals) + 2.0 * len(totals)
        assert row[ltv_i] == pytest.approx(expected, abs=1e-5)
    truth = spec.truth()
    assert truth["coef_mean_total"] == 3.0 and truth["coef_order_count"] == 2.0


def test_synth_schema_parses_and_binds():
    from cmml import binder, eer
    schema = eer.rewrite_many_to_many(parse(evalkit.SYNTH_SCHEMA_TEXT))
    bound = binder.bind(schema, evalkit.synth_generate(evalkit.SynthSpec(customers=10), 0))
    assert bound.ok, bound.report.render()


def test_synth_spec_from_dict_validation():
    assert evalkit.SynthSpec.from_dict({"customers": 5}).customers == 5
    with pytest.raises(ValueError):
        evalkit.SynthSpec.from_dict({"nope": 1})
    with pytest.raises(ValueError):
        evalkit.SynthSpec.from_dict({"fanout_min": 5, "fanout_max": 2})


# ---------------------------------------------------------------------------
# compare_datasets


def _prepared(seed=42, customers=200):
    from cmml import binder, eer, engine, planner
    spec = evalkit.SynthSpec(customers=customers)
    bundle = evalkit.synth_generate(spec, seed)
    schema = eer.rewrite_many_to_many(parse(evalkit.SYNTH_SCHEMA_TEXT))
    bound = binder.bind(schema, bundle)
    assert bound.ok
    task = schema.task("PREDICT_LTV")
    options = planner.PlanOptions.from_task(task)
    plan = planner.compile_plan(bound.schema, task, options)
    datasets, _ = engine.execute(plan, bound, engine.Derivations(bound, dt.date.today()))
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, task),
                                engine.Derivations(bound, dt.date.today()))
    return flat, datasets[0]


def test_compare_datasets_prefers_summarized():
    flat, tds = _prepared()
    ti = tds.table.column_index(tds.target_column)
    vals = [r[ti] for r in tds.table.rows]
    rep = evalkit.compare_datasets(flat, tds, value_range=max(vals) - min(vals),
                                   folds=5, seed=0)
    assert rep.tds.r2 > rep.ds0.r2
    assert rep.n_entities == 200
    assert sum(rep.fold_sizes) == 200


def test_compare_datasets_fold_validation():
    flat, tds = _prepared(customers=10)
    with pytest.raises(ValueError):
        evalkit.compare_datasets(flat, tds, 100.0, folds=1)
    with pytest.raises(ValueError):
        evalkit.compare_datasets(flat, tds, 100.0, folds=11)


# ---------------------------------------------------------------------------
# Encoded design and fold selection edge cases


def _features(table, train, rows):
    """The design of ``rows`` fitted on ``train``, without its intercept
    column."""
    d = evalkit.OneHotDesign(table, "y")
    d.solve([d.fit(np.asarray(train, dtype=np.int64))], 1e-6)
    X = d.transform(np.asarray(rows, dtype=np.int64))
    assert X.flags["C_CONTIGUOUS"] and X[:, 0].tolist() == [1.0] * len(X)
    return X[:, 1:]


def _design_table(rows):
    return Table("T", [Column("id", "identifier"), Column("num", "numeric"),
                       Column("flag", "boolean"), Column("cat", "nominal"), Column("y", "numeric")],
                 rows=rows, key_columns=["id"])


def test_one_hot_design_category_seen_only_in_test_is_all_zeros():
    t = _design_table([["a", 1.0, True, "red", 0.0],
                       ["b", 2.0, False, "blue", 0.0],
                       ["c", 3.0, True, "green", 0.0],
                       ["d", 4.0, False, "amber", 0.0]])
    X = _features(t, np.arange(3), [3, 1])
    # columns: num, flag, cat in {blue, green}; amber sorts first but was never trained
    assert X.shape == (2, 4)
    assert list(X[0]) == [4.0, 0.0, 0.0, 0.0]
    assert list(X[1]) == [2.0, 0.0, 1.0, 0.0]


def test_one_hot_design_numeric_without_known_train_value_fills_zero():
    t = _design_table([["a", None, True, "red", 0.0],
                       ["b", UNKNOWN, False, "red", 0.0],
                       ["c", 5.0, True, "red", 0.0]])
    assert list(_features(t, np.arange(2), np.arange(3))[:, 0]) == [0.0, 0.0, 5.0]


def test_one_hot_design_tagged_nulls_act_like_none():
    t = _design_table([["a", None, None, None, 0.0],
                       ["b", UNKNOWN, UNKNOWN, UNKNOWN, 0.0],
                       ["c", NOT_APPLICABLE, NOT_APPLICABLE, NOT_APPLICABLE, 0.0],
                       ["d", 1.0, True, "x", 0.0],
                       ["e", 4.0, True, "y", 0.0]])
    X = _features(t, np.arange(5), np.arange(5))
    # columns: num (mean of the known 1 and 4), flag, cat x (y dropped as reference)
    assert X.shape == (5, 3)
    for i in range(3):
        assert list(X[i]) == [2.5, 0.0, 0.0]
    assert list(X[3]) == [1.0, 1.0, 1.0]
    assert list(X[4]) == [4.0, 1.0, 0.0]


def _reference_design(table, train, test):
    """Row-at-a-time encoding: train-mean fill, 0/1 booleans, one-hot over the
    sorted train categories minus the last; the columnar design must match it."""
    kinds = [(i, c.kind) for i, c in enumerate(table.columns)
             if c.name not in ("id", "y")]
    train_rows = [table.rows[i] for i in train]
    means, cats = {}, {}
    for i, kind in kinds:
        known = [r[i] for r in train_rows if not is_null(r[i])]
        if kind == "numeric":
            means[i] = sum(known) / len(known) if known else 0.0
        elif kind == "nominal":
            cats[i] = sorted(set(known))[:-1]
    out = []
    for r in (table.rows[i] for i in test):
        vec = [means[i] if is_null(r[i]) else r[i] for i, kind in kinds if kind == "numeric"]
        vec += [1.0 if r[i] is True else 0.0 for i, kind in kinds if kind == "boolean"]
        for i, kind in kinds:
            if kind == "nominal":
                vec += [1.0 if r[i] == c else 0.0 for c in cats[i]]
        out.append(vec)
    return out


def test_one_hot_design_matches_row_reference():
    rng = random.Random(5)
    nulls = (None, UNKNOWN, NOT_APPLICABLE)
    values = {"numeric": lambda: round(rng.uniform(-50, 50), 3),
              "boolean": lambda: rng.random() < 0.5,
              "nominal": lambda: rng.choice(("red", "green", "blue", "amber")),
              "text": lambda: "note"}
    columns = [Column("id", "identifier"), Column("n1", "numeric"), Column("c1", "nominal"),
               Column("b1", "boolean"), Column("n2", "numeric"), Column("txt", "text"),
               Column("c2", "nominal"), Column("y", "numeric")]
    for _ in range(20):
        rows = [[f"r{j}"] + [rng.choice(nulls) if rng.random() < 0.3 else values[c.kind]()
                             for c in columns[1:-1]] + [0.0]
                for j in range(rng.randint(1, 30))]
        t = Table("T", columns, rows=rows, key_columns=["id"])
        idx = list(range(len(rows)))
        rng.shuffle(idx)
        cut = rng.randint(0, len(idx))
        train, test = sorted(idx[:cut]), sorted(idx[cut:])
        X = _features(t, train, test)
        assert X.tolist() == _reference_design(t, train, test)


def _pair(tds_rows, flat_rows):
    columns = [Column("id", "identifier"), Column("x", "numeric"), Column("y", "numeric")]
    tds = TrainingDataset("T", Table("T", columns, rows=tds_rows, key_columns=["id"]), "y")
    flat = TrainingDataset("ds0", Table("ds0", columns, rows=flat_rows, key_columns=["id"]), "y")
    return flat, tds


def test_compare_datasets_fold_without_scorable_rows():
    # k0 and k5 have no target, and with seed 13 they make up one whole fold
    y = [UNKNOWN if i % 5 == 0 else 2.0 * i for i in range(10)]
    flat, tds = _pair([[f"k{i}", float(i), y[i]] for i in range(10)],
                      [[f"k{i}", float(i) + d, y[i]] for i in range(10) for d in (0.0, 0.5)])
    rep = evalkit.compare_datasets(flat, tds, 20.0, folds=5, seed=13)
    assert rep.fold_sizes == [2, 2, 2, 2, 2]
    assert rep.n_entities == 8
    design = evalkit.OneHotDesign(tds.table, "y")
    design.solve([design.fit(np.flatnonzero(~np.isnan(design.target)))], 1e-6)
    assert design.transform(np.arange(0))[:, 1:].shape == (0, 1)


def test_compare_datasets_ignores_flat_rows_without_prepared_key(monkeypatch):
    tds_rows = [[f"k{i}", float(i), 3.0 * i + (i % 3)] for i in range(12)]
    flat_rows = [[f"k{i}", float(i) + d, tds_rows[i][2]] for i in range(12) for d in (0.0, 1.0)]
    orphans = [["zz", 1e6, -1e6], ["zz", -1e6, 1e6], ["yy", 7.0, UNKNOWN]]

    def run(rows):
        seen = []
        real = evalkit.OneHotDesign.transform

        def transform(self, idx):
            seen.append(idx.tolist())
            return real(self, idx)

        monkeypatch.setattr(evalkit.OneHotDesign, "transform", transform)
        flat, tds = _pair(tds_rows, rows)
        rep = evalkit.compare_datasets(flat, tds, 40.0, folds=3, seed=2)
        monkeypatch.undo()
        return rep.to_dict(), seen

    base, base_seen = run(flat_rows)
    with_orphans, orphan_seen = run(flat_rows + orphans)
    assert with_orphans == base
    assert orphan_seen == base_seen  # no orphan row index in any train or test set


def test_compare_datasets_linear_at_scale():
    rng = random.Random(0)
    keys, tds_rows, flat_rows = 20_000, [], []
    for i in range(keys):
        totals = [round(rng.uniform(10, 100), 2) for _ in range(rng.randint(1, 8))]
        y = 3.0 * sum(totals) / len(totals) + 2.0 * len(totals) + rng.gauss(0, 15)
        key = f"C{i:05d}"
        tds_rows.append([key, float(len(totals)), rng.choice(("F", "M")), y])
        flat_rows += [[key, t, rng.choice(("Online", "Phone", "Store")), y] for t in totals]
    tds = TrainingDataset("T", Table("T", [Column("id", "identifier"), Column("n", "numeric"),
                                           Column("g", "nominal"), Column("y", "numeric")],
                                     rows=tds_rows, key_columns=["id"]), "y")
    flat = TrainingDataset("ds0", Table("ds0", [Column("id", "identifier"),
                                                Column("total", "numeric"),
                                                Column("channel", "nominal"),
                                                Column("y", "numeric")],
                                        rows=flat_rows, key_columns=["id"]), "y")
    assert 85_000 < len(flat_rows) < 95_000
    t0 = time.perf_counter()
    rep = evalkit.compare_datasets(flat, tds, 400.0, folds=5, seed=0)
    elapsed = time.perf_counter() - t0
    assert rep.n_entities == keys
    # on a 2-core host the quadratic version took about 85 s here, this one under 1 s
    assert elapsed < 15.0, f"compare_datasets took {elapsed:.1f} s at {keys} keys"


def test_compare_datasets_peak_is_within_twice_one_train_design():
    # 5k keys; the naive side is a join view of 22.5k rows with a numeric and a
    # 30-category nominal, so one fold's train design is about 18k x 31 floats
    rng = random.Random(0)
    keys = [f"C{i:05d}" for i in range(5000)]
    y = [rng.uniform(0, 400) for _ in keys]
    tds = Table("T", [Column("id", "identifier"), Column("n", "numeric"),
                      Column("g", "nominal"), Column("y", "numeric")],
                [[k, float(rng.randint(1, 8)), rng.choice("FM"), v] for k, v in zip(keys, y)],
                ["id"])
    parent = np.repeat(np.arange(len(keys)), [4 + i % 2 for i in range(len(keys))])
    rows = len(parent)
    child = [[rng.uniform(10, 100) for _ in range(rows)],
             [f"ch{rng.randrange(30):02d}" for _ in range(rows)]]
    flat = Table("ds0", [Column("id", "identifier"), Column("y", "numeric"),
                         Column("total", "numeric"), Column("channel", "nominal")],
                 JoinRows([[pack(keys, "identifier"), pack(y, "numeric")],
                           [pack(child[0], "numeric"), pack(child[1], "nominal")]],
                          [parent, np.arange(rows)]), ["id"])
    assert rows == 22_500
    tracemalloc.start()
    try:
        evalkit.compare_datasets(TrainingDataset("ds0", flat, "y"), TrainingDataset("T", tds, "y"),
                                 400.0, folds=5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    train_design = rows * 4 // 5 * (1 + 1 + 29) * 8  # intercept, total, 29 kept channels
    # the dense design of every row by every category peaked at 3.9x
    assert peak <= 2 * train_design, f"peak {peak / train_design:.2f}x one train design"


@pytest.mark.parametrize("seed", range(20))
def test_fit_keeps_the_categories_np_unique_keeps(seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(-1, rng.integers(1, 8), size=rng.integers(1, 40))
    rows = rng.choice(len(codes), size=rng.integers(0, len(codes) + 1), replace=False)
    cells = [None if c < 0 else f"v{c}" for c in codes.tolist()]
    table = Table("T", [Column("c", "nominal"), Column("y", "numeric")],
                  [[v, 0.0] for v in cells])
    design = evalkit.OneHotDesign(table, "y")
    design.solve([design.fit(rows)], 1e-6)
    (encoded,) = design.nominal
    seen = np.unique(encoded[rows])
    assert design.kept[0].tolist() == seen[seen >= 0][:-1].tolist()


def test_fit_does_not_import_numpy_ma():
    code = ("import sys, numpy as np; sys.path.insert(0, 'src'); from cmml import evalkit; "
            "from cmml.tabular import Column, Table; "
            "t = Table('T', [Column('k', 'identifier'), Column('c', 'nominal'), "
            "Column('y', 'numeric')], [['a', 'x', 1.0], ['b', 'y', 2.0]], ['k']); "
            "d = evalkit.OneHotDesign(t, 'y'); beta = d.solve([d.fit(np.arange(2))], 1e-6); "
            "d.transform(np.arange(2)) @ beta; "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=Path(__file__).resolve().parents[1], check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_design_from_join_view_equals_materialized_rows(name, tmp_path):
    from cmml import binder, dsl, eer, engine
    schema_path, data_dir, task_name = GOLDEN_CASES[name](tmp_path)
    schema, _ = dsl.parse_schema_file(schema_path)
    schema = eer.rewrite_many_to_many(schema)
    bundle, _ = binder.load_bundle(schema, data_dir)
    clock = dt.date(2019, 6, 1)
    bound = binder.bind(schema, bundle, clock)
    flat = engine.flatten_naive(bound, eer.resolve_target(schema, schema.task(task_name)),
                                engine.Derivations(bound, clock))
    view = flat.table
    assert isinstance(view.rows, JoinRows)
    rows = Table(view.name, view.columns, [list(r) for r in view.rows], view.key_columns)
    materialized = TrainingDataset("ds0", rows, flat.target_column)
    by_view = evalkit.OneHotDesign(view, flat.target_column)
    by_rows = evalkit.OneHotDesign(rows, flat.target_column)
    assert np.array_equal(by_view.target, by_rows.target, equal_nan=True)
    everything = np.arange(len(view.rows))
    known = np.flatnonzero(~np.isnan(by_view.target))
    assert by_view.nullable.tolist() == by_rows.nullable.tolist()
    for fit_rows in (known, known[::2]):
        sums_view, sums_rows = by_view.fit(fit_rows), by_rows.fit(fit_rows)
        assert all(np.array_equal(v, r) for v, r in zip(sums_view, sums_rows))
        beta_view = by_view.solve([sums_view], 1e-6)
        beta_rows = by_rows.solve([sums_rows], 1e-6)
        assert np.array_equal(beta_view, beta_rows)
        x_view = by_view.transform(everything)[:, 1:]
        x_rows = by_rows.transform(everything)[:, 1:]
        assert x_view.shape == x_rows.shape and np.array_equal(x_view, x_rows)
    keys = sorted({r[0] for r in rows.rows})
    position = {k: i for i, k in enumerate(keys[::2])}  # half the keys have none
    pos_v, pos_r = evalkit._positions(flat, position), evalkit._positions(materialized, position)
    assert pos_v.tolist() == [position.get(r[0], -1) for r in rows.rows] == pos_r.tolist()
