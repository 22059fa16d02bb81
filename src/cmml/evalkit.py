"""Metrics, a closed-form ridge/OLS baseline learner, a signed-rank test and
a seeded synthetic relational generator, used to demonstrate the flat-vs-
summarized dataset performance gap at desk scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .engine import TrainingDataset
from .expr import left_sum
from .tabular import Column, DataBundle, Table
from .values import box, factorize


# ---------------------------------------------------------------------------
# Regression / classification metrics


@dataclass
class RegressionReport:
    rmse: float
    nrmse: float
    r2: float
    n: int
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "nrmse": self.nrmse, "r2": self.r2, "n": self.n}


@dataclass
class ClassificationReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    warnings: list[str] = field(default_factory=list)


def regression_metrics(actual: Sequence[float], predicted: Sequence[float],
                       value_range: float) -> RegressionReport:
    """RMSE, range-normalized RMSE and r² (1 - SSres/SStot)."""
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: {len(actual)} actuals vs {len(predicted)} predictions")
    if not actual:
        raise ValueError("empty input")
    if value_range <= 0:
        raise ValueError("range must be positive")
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    # a huge prediction overflows to an infinite error quietly, as in ols_fit
    with np.errstate(over="ignore", invalid="ignore"):
        ss_res = float(np.sum((a - p) ** 2))
        ss_tot = float(np.sum((a - a.mean()) ** 2))
    rmse = math.sqrt(ss_res / len(a))
    warnings: list[str] = []
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
        warnings.append("constant actuals: r2 defined as 1 when SSres=0, else 0")
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RegressionReport(rmse=rmse, nrmse=rmse / value_range, r2=r2, n=len(a),
                            warnings=warnings)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def classification_metrics(tp: int, fp: int, fn: int) -> ClassificationReport:
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be nonnegative")
    warnings: list[str] = []
    if tp + fp > 0:
        precision = 100.0 * tp / (tp + fp)
    else:
        precision = 0.0
        warnings.append("precision denominator zero; defined as 0")
    if tp + fn > 0:
        recall = 100.0 * tp / (tp + fn)
    else:
        recall = 0.0
        warnings.append("recall denominator zero; defined as 0")
    return ClassificationReport(precision=precision, recall=recall,
                                f1=f1_score(precision, recall),
                                tp=tp, fp=fp, fn=fn, warnings=warnings)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test (normal approximation with tie correction)


@dataclass
class WilcoxonResult:
    n_nonzero: int
    t_plus: float
    sigma_t: float
    z: float
    p_two_tailed: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {"n_nonzero": self.n_nonzero, "t_plus": self.t_plus, "sigma_t": self.sigma_t,
                "z": self.z, "p_two_tailed": self.p_two_tailed, "degenerate": self.degenerate}


def _normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Paired signed-rank test: zero differences dropped, mid-ranks for ties,
    z = (T+ - n(n+1)/4) / sigma_T with the tie correction sum(t^3 - t)/48
    subtracted from the variance; two-tailed normal p-value. Raises
    ValueError on a non-finite difference, which has no rank."""
    if not pairs:
        raise ValueError("need at least one pair")
    diffs = [a - b for a, b in pairs if a != b]
    bad = next((d for d in diffs if not math.isfinite(d)), None)
    if bad is not None:
        raise ValueError(f"signed-rank test needs finite paired differences, got {bad}")
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(n_nonzero=0, t_plus=0.0, sigma_t=0.0, z=0.0,
                              p_two_tailed=1.0, degenerate=True)
    mags = sorted(abs(d) for d in diffs)
    # one scan over the tie groups: mid-rank of each magnitude, tie correction
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
    mean_t = n * (n + 1) / 4.0
    z = (t_plus - mean_t) / sigma_t if sigma_t > 0 else 0.0
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return WilcoxonResult(n_nonzero=n, t_plus=t_plus, sigma_t=sigma_t, z=z, p_two_tailed=p)


# ---------------------------------------------------------------------------
# Closed-form baseline learner


def ols_fit(features: np.ndarray, target: Sequence[float], ridge: float = 1e-8) -> np.ndarray:
    """Minimize ||X beta - y||^2 + ridge * ||beta||^2 via normal equations,
    with an intercept prepended as the first coefficient."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be a 2-D matrix with one row per target value")
    return _solve(np.hstack([np.ones((X.shape[0], 1)), X]), y, ridge)


def _solve(design: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """``ols_fit``'s normal equations on a design whose first column is ones."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    # features near 1e308 overflow to nan coefficients quietly: callers check finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.T @ design + ridge * np.eye(design.shape[1])
        try:
            if ridge == 0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
                raise np.linalg.LinAlgError("singular")
            return np.linalg.solve(gram, design.T @ y)
        except np.linalg.LinAlgError:
            raise ValueError("singular system; retry with ridge > 0")


def ols_predict(beta: np.ndarray, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    return np.hstack([np.ones((X.shape[0], 1)), X]) @ beta


class OneHotDesign:
    """Design matrices over a Table: the intercept's ones, the numeric columns
    (nulls filled with the train mean), booleans as 0/1, then per nominal a
    0/1 column per train category but the lexically last (the reference
    level). Key columns, the target, identifiers, dates and text are excluded.

    Each column is encoded once in its join block (a plain table is one block,
    index None), read off its ``Vec``: numeric and boolean columns in one
    float array (a numeric null is its nan), nominals as codes into their
    sorted categories (``nominal``, ``values.factorize``, -1 = null).
    ``fit(rows)`` keeps the rows' means and categories and returns their
    design, ``transform(rows)`` any rows'. A design is one C-order array,
    filled by a row gather per block and a scatter of 1.0 into kept columns.
    """

    _CHUNK = 8192  # design rows gathered from a block at a time

    def __init__(self, table: Table, target_column: str):
        skip = set(table.key_columns) | {target_column}
        kinds = [None if c.name in skip else c.kind for c in table.columns]
        self.n_numeric = kinds.count("numeric")
        self.n_dense = self.n_numeric + kinds.count("boolean")
        numeric, boolean = 1, 1 + self.n_numeric  # the next design column of each kind
        self.blocks = []  # (index, dense values, (design, values) column runs, nominals)
        for cells, index in ([(table.cells, None)] if table.join is None
                             else zip(table.join.blocks, table.join.index)):
            kind, kinds = kinds[:len(cells)], kinds[len(cells):]
            dense = [j for k in ("numeric", "boolean") for j in range(len(cells)) if kind[j] == k]
            values = np.empty((len(cells[0]) if cells else 0, len(dense)))
            for i, j in enumerate(dense):
                vec = cells[j]  # a numeric null is nan already; a boolean one reads 0
                values[:, i] = vec.values if kind[j] == "numeric" else vec.values & (vec.null == 0)
            w = kind.count("numeric")  # values holds w numeric, then boolean columns
            runs = ((slice(numeric, numeric + w), slice(0, w)),
                    (slice(boolean, boolean + len(dense) - w), slice(w, len(dense))))
            numeric, boolean = numeric + w, boolean + len(dense) - w
            nominal = [factorize(cells[j])[1] for j in range(len(cells)) if kind[j] == "nominal"]
            self.blocks.append((index, values, runs, nominal))
        self.nominal = [codes for block in self.blocks for codes in block[3]]

    def fit(self, rows: np.ndarray) -> np.ndarray:
        column, self.kept, self.slots = 1 + self.n_dense, [], []
        for index, _, _, nominal in self.blocks:
            at = rows if index is None else index[rows]
            self.slots.append([])
            for codes in nominal:
                picked = codes[at]
                kept = np.flatnonzero(np.bincount(picked[picked >= 0]))[:-1]
                # each code's design column, -1 for none; a null's -1 reads the last
                slot = np.full(int(codes.max(initial=-1)) + 2, -1, np.int64)
                slot[kept] = column + np.arange(len(kept))
                column += len(kept)
                self.kept.append(kept)
                self.slots[-1].append(slot)
        X = self._unfilled(rows)
        self.means = np.zeros(self.n_numeric)  # 0 where no train row is known
        for j in range(self.n_numeric):
            null = np.isnan(X[:, 1 + j])
            known = X[~null, 1 + j]
            # summed in row order from 0.0: left_sum's bits (np.sum adds pairwise)
            total = np.bincount(np.zeros(len(known), np.intp), weights=known, minlength=1)[0]
            self.means[j] = total / max(len(known), 1)
            X[null, 1 + j] = self.means[j]
        return X

    def transform(self, rows: np.ndarray) -> np.ndarray:
        X = self._unfilled(rows)
        for j, mean in enumerate(self.means.tolist()):
            X[np.isnan(X[:, 1 + j]), 1 + j] = mean
        return X

    def _unfilled(self, rows: np.ndarray) -> np.ndarray:  # nulls still nan
        X = np.zeros((len(rows), 1 + self.n_dense + sum(map(len, self.kept))))
        X[:, 0] = 1.0
        for (index, values, runs, nominal), slots in zip(self.blocks, self.slots):
            at = rows if index is None else index[rows]
            for s in range(0, len(at) if values.shape[1] else 0, self._CHUNK):
                part = values[at[s:s + self._CHUNK]]
                for design, value in runs:
                    X[s:s + self._CHUNK, design] = part[:, value]
            for codes, slot in zip(nominal, slots):
                columns = slot[codes[at]]
                hit = np.flatnonzero(columns >= 0)
                X[hit, columns[hit]] = 1.0
        return X


def _encoded(table: Table, j: int, encode) -> np.ndarray:
    """Column ``j`` of the table, encoded: a join view's block column once,
    then gathered to one value per row."""
    vec, index = table.column_cells(j)
    values = encode(vec)
    return values if index is None else values[index]


# ---------------------------------------------------------------------------
# Seeded synthetic relational generator

SYNTH_SCHEMA_TEXT = """\
entity CUSTOMER {
  key cust_id: identifier
  attr gender: nominal
  attr ltv: numeric
}

entity ORDER {
  key order_id: identifier
  attr total: numeric
  attr channel: nominal
}

relationship PLACES { CUSTOMER (1,1) -- (1,N) ORDER via cust_id }

task PREDICT_LTV { target CUSTOMER.ltv }
"""


@dataclass(frozen=True)
class SynthSpec:
    customers: int = 200
    fanout_min: int = 1
    fanout_max: int = 8
    noise_sigma: float = 15.0
    coef_mean_total: float = 3.0
    coef_order_count: float = 2.0
    intercept: float = 0.0
    total_min: float = 10.0
    total_max: float = 100.0
    channels: tuple[str, ...] = ("Online", "Phone", "Store")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown generator spec field(s): {sorted(unknown)}")
        if "channels" in d:
            d = dict(d, channels=tuple(d["channels"]))
        spec = cls(**d)
        if spec.customers < 1 or spec.fanout_min < 0 or spec.fanout_max < spec.fanout_min:
            raise ValueError("invalid generator spec: counts/fan-out out of range")
        if spec.noise_sigma < 0 or spec.total_max < spec.total_min:
            raise ValueError("invalid generator spec: noise/total range out of range")
        return spec

    def truth(self) -> dict:
        return {
            "formula": "ltv = intercept + coef_mean_total*mean(total) + coef_order_count*count + noise",
            "intercept": self.intercept,
            "coef_mean_total": self.coef_mean_total,
            "coef_order_count": self.coef_order_count,
            "noise_sigma": self.noise_sigma,
        }


def synth_generate(spec: SynthSpec, seed: int) -> DataBundle:
    """Deterministic per seed: customers with Uniform{fanout} orders; the
    target is the stated linear function of the summarized order statistics
    plus Gaussian noise."""
    rng = random.Random(seed)
    customer_rows, order_rows = [], []
    order_seq = 1
    for c in range(1, spec.customers + 1):
        cust_id = f"C{c:05d}"
        fanout = rng.randint(spec.fanout_min, spec.fanout_max)
        totals = []
        for _ in range(fanout):
            total = round(rng.uniform(spec.total_min, spec.total_max), 2)
            totals.append(total)
            order_rows.append([f"O{order_seq:06d}", total, rng.choice(spec.channels), cust_id])
            order_seq += 1
        mean_total = left_sum(totals) / len(totals) if totals else 0.0
        ltv = (spec.intercept + spec.coef_mean_total * mean_total
               + spec.coef_order_count * fanout + rng.gauss(0.0, spec.noise_sigma))
        customer_rows.append([cust_id, rng.choice(("F", "M")), round(ltv, 6)])
    customers = Table("CUSTOMER", [Column("cust_id", "identifier"), Column("gender", "nominal"),
                                   Column("ltv", "numeric")], customer_rows, ["cust_id"])
    orders = Table("ORDER", [Column("order_id", "identifier"), Column("total", "numeric"),
                             Column("channel", "nominal"), Column("cust_id", "identifier")],
                   order_rows, ["order_id"])
    bundle = DataBundle()
    bundle.add(customers)
    bundle.add(orders)
    return bundle


# ---------------------------------------------------------------------------
# Paired comparison of the naive flat dataset vs a summarized dataset


@dataclass
class ComparisonReport:
    ds0: RegressionReport
    tds: RegressionReport
    wilcoxon: WilcoxonResult
    n_entities: int
    folds: int
    fold_sizes: list[int]

    def to_dict(self) -> dict:
        return {
            "ds0": self.ds0.to_dict(),
            "tds": self.tds.to_dict(),
            "wilcoxon": self.wilcoxon.to_dict(),
            "n_entities": self.n_entities,
            "folds": self.folds,
            "fold_sizes": self.fold_sizes,
        }


def _positions(dataset: TrainingDataset, position: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each row's key position in ``position`` (-1 = none) and target (nan = null)."""
    table = dataset.table
    pos = _encoded(table, table.column_index(table.key_columns[0]),
                   lambda keys: np.fromiter(map(position.get, box(keys), repeat(-1)), np.int64))
    return pos, _encoded(table, table.column_index(dataset.target_column), lambda y: y.values)


def compare_datasets(ds0: TrainingDataset, tds: TrainingDataset, value_range: float,
                     folds: int = 5, seed: int = 0, ridge: float = 1e-6) -> ComparisonReport:
    """k-fold out-of-sample comparison at equal grain.

    Folds partition the target-bearing entity keys (an entity never straddles
    folds). Flat-dataset row predictions are averaged per entity key before
    scoring, then paired absolute errors feed the signed-rank test.

    Rows are encoded once; folds, actuals and predictions are arrays over the
    sorted ``tds`` keys and a fold selects rows by index, so the cost is linear
    in rows. Flat rows whose key is not in ``tds`` are in no fold. Test rows
    with a null target are not scored.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(tds.table.key_columns) != 1 or len(ds0.table.key_columns) != 1:
        raise ValueError("comparison requires a single-column entity key")

    t_key = tds.table.column_index(tds.table.key_columns[0])
    keys = sorted(set(box(tds.table.cells[t_key])))
    if folds > len(keys):
        raise ValueError(f"{folds} folds but only {len(keys)} distinct keys")
    n = len(keys)
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)  # the keys' permutation: it depends on n alone
    fold = np.empty(n, np.int64)
    fold[shuffled] = np.arange(n) % folds  # each key's place in the shuffle, mod folds
    fold_sizes = [len(shuffled[f::folds]) for f in range(folds)]

    position = {k: i for i, k in enumerate(keys)}
    t_pos, t_y = _positions(tds, position)
    f_pos, f_y = _positions(ds0, position)
    t_fold = fold[t_pos]
    f_fold = np.where(f_pos >= 0, fold[f_pos], -1)
    t_known = ~np.isnan(t_y)
    f_known = ~np.isnan(f_y) & (f_fold >= 0)  # rows of keys in no fold never train
    t_design, f_design = (OneHotDesign(d.table, d.target_column) for d in (tds, ds0))

    # a key is scored once both arms predicted it, whatever the value
    actual, tds_pred, ds0_pred = np.zeros(n), np.zeros(n), np.zeros(n)
    in_tds, in_ds0 = np.zeros(n, bool), np.zeros(n, bool)
    for f in range(folds):
        train, test = t_known & (t_fold != f), np.flatnonzero(t_known & (t_fold == f))
        beta = _solve(t_design.fit(np.flatnonzero(train)), t_y[train], ridge)
        tds_pred[t_pos[test]] = t_design.transform(test) @ beta
        actual[t_pos[test]], in_tds[t_pos[test]] = t_y[test], True
        train, test = f_known & (f_fold != f), np.flatnonzero(f_fold == f)
        beta = _solve(f_design.fit(np.flatnonzero(train)), f_y[train], ridge)
        preds = f_design.transform(test) @ beta
        # each key's mean prediction, summed in row order as left_sum would
        count = np.bincount(f_pos[test], minlength=n)
        mean = np.bincount(f_pos[test], weights=preds, minlength=n) / np.maximum(count, 1)
        hit = count > 0
        ds0_pred[hit], in_ds0[hit] = mean[hit], True

    scored = in_tds & in_ds0
    a, t, d = actual[scored].tolist(), tds_pred[scored].tolist(), ds0_pred[scored].tolist()
    wil = wilcoxon_signed_rank([(abs(dp - y), abs(tp - y)) for y, tp, dp in zip(a, t, d)])
    return ComparisonReport(ds0=regression_metrics(a, d, value_range),
                            tds=regression_metrics(a, t, value_range), wilcoxon=wil,
                            n_entities=len(a), folds=folds, fold_sizes=fold_sizes)
