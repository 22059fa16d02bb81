"""Metrics, a closed-form ridge/OLS baseline learner, a signed-rank test and
a seeded synthetic relational generator, used to demonstrate the flat-vs-
summarized dataset performance gap at desk scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import dsl, eer
from .engine import TrainingDataset
from .expr import float_column, left_sum
from .values import NOT_APPLICABLE, UNKNOWN
from .tabular import Column, DataBundle, Table


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
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    Xi = np.hstack([np.ones((X.shape[0], 1)), X])
    # features near 1e308 overflow to nan coefficients quietly: callers check finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        gram = Xi.T @ Xi + ridge * np.eye(Xi.shape[1])
        try:
            if ridge == 0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
                raise np.linalg.LinAlgError("singular")
            return np.linalg.solve(gram, Xi.T @ y)
        except np.linalg.LinAlgError:
            raise ValueError("singular system; retry with ridge > 0")


def ols_predict(beta: np.ndarray, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    return np.hstack([np.ones((X.shape[0], 1)), X]) @ beta


class OneHotDesign:
    """Design-matrix builder over a Table: numeric columns pass through
    (train-mean filled), booleans become 0/1, nominals are one-hot encoded
    with the lexically last category dropped as reference level. The table's
    key columns, the target, identifiers, dates and text are excluded.

    One float design is built at construction: the numeric columns (nan =
    null), the booleans as 0/1, then one 0/1 column per category of each
    nominal, in sorted order. ``nominal`` keeps each nominal column's codes
    into its sorted categories (-1 = null). A join view's columns are encoded
    per block cell and gathered along its index. ``fit`` and ``transform``
    take an integer array of row indexes into the table; ``fit`` takes the
    means and the kept categories from the rows it is given, and
    ``transform`` gathers the kept columns of the rows.
    """

    def __init__(self, table: Table, target_column: str):
        skip = set(table.key_columns) | {target_column}
        columns: dict[str, list[np.ndarray]] = {"numeric": [], "boolean": [], "nominal": []}
        for i, c in enumerate(table.columns):
            if c.name not in skip and c.kind in columns:
                columns[c.kind].append(_encoded(table, i, _ENCODERS[c.kind]))
        self.nominal = columns["nominal"]
        dense = columns["numeric"] + columns["boolean"]
        self.n_numeric = len(columns["numeric"])
        self.n_dense = len(dense)
        widths = [int(codes.max(initial=-1)) + 1 for codes in self.nominal]
        # the first design column of each nominal's categories
        self.first = len(dense) + np.cumsum([0] + widths[:-1], dtype=np.int64)
        self.design = np.zeros((table.row_count, len(dense) + sum(widths)))
        for j, values in enumerate(dense):
            self.design[:, j] = values
        for first, codes in zip(self.first.tolist(), self.nominal):
            rows = np.flatnonzero(codes >= 0)
            self.design[rows, first + codes[rows]] = 1.0

    def fit(self, rows: np.ndarray) -> "OneHotDesign":
        numeric = self.design[rows, :self.n_numeric]
        known = ~np.isnan(numeric)
        filled = np.where(known, numeric, 0.0)
        # added down each column in row order from a zero row, one rounding
        # per addition: left_sum's bits (np.sum adds pairwise)
        with np.errstate(over="ignore"):
            sums = np.cumsum(np.vstack([np.zeros(self.n_numeric), filled]), axis=0)[-1]
        count = known.sum(axis=0)
        self.means = np.where(count > 0, sums / np.maximum(count, 1), 0.0)
        self.kept = []
        for codes in self.nominal:
            picked = codes[rows]
            present = np.flatnonzero(np.bincount(picked[picked >= 0]))
            self.kept.append(present[:-1])  # drop lexically last as reference
        self.columns = np.concatenate([np.arange(self.n_dense)]
                                      + [first + kept for first, kept in zip(self.first, self.kept)])
        return self

    def transform(self, rows: np.ndarray) -> np.ndarray:
        # one gather into a new C-order array: the products in ols_fit round
        # by memory layout
        X = self.design[rows[:, None], self.columns]
        numeric = X[:, :self.n_numeric]
        np.copyto(numeric, self.means, where=np.isnan(numeric))
        return X


def _nominal_codes(cells: list) -> np.ndarray:
    """Each cell's position in the sorted list of distinct values; -1 = null."""
    distinct = set(cells) - {None, UNKNOWN, NOT_APPLICABLE}
    code = {c: j for j, c in enumerate(sorted(distinct))}
    return np.fromiter((code.get(v, -1) for v in cells), np.int64, len(cells))


_ENCODERS = {
    "numeric": float_column,
    "boolean": lambda cells: np.array([1.0 if v is True else 0.0 for v in cells], dtype=float),
    "nominal": _nominal_codes,
}


def _encoded(table: Table, j: int, encode) -> np.ndarray:
    """Column ``j`` of the table, encoded: a join view's block cells once,
    then gathered to one value per row."""
    cells, index = table.column_cells(j)
    values = encode(cells)
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


def synth_schema() -> eer.EerSchema:
    schema, rep = dsl.parse_schema(dsl.SchemaSource(SYNTH_SCHEMA_TEXT, origin="<synth>"))
    assert rep.ok, rep.render()
    return schema


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


def _fold_ids(dataset: TrainingDataset, fold_of: dict) -> tuple[list, np.ndarray, np.ndarray]:
    """The key of each row of a dataset, the target as floats (nan = null)
    and the fold of each row (-1 = key not folded)."""
    table = dataset.table
    keys, index = table.column_cells(table.column_index(table.key_columns[0]))
    fold = np.array([fold_of.get(k, -1) for k in keys], dtype=np.int64)
    if index is not None:
        keys, fold = list(map(keys.__getitem__, index.tolist())), fold[index]
    target = _encoded(table, table.column_index(dataset.target_column), _ENCODERS["numeric"])
    return keys, target, fold


def _fit_predict(design: OneHotDesign, target: np.ndarray, train: np.ndarray,
                 test: np.ndarray, ridge: float) -> np.ndarray:
    design.fit(train)
    beta = ols_fit(design.transform(train), target[train], ridge=ridge)
    return ols_predict(beta, design.transform(test))


def compare_datasets(ds0: TrainingDataset, tds: TrainingDataset, value_range: float,
                     folds: int = 5, seed: int = 0, ridge: float = 1e-6) -> ComparisonReport:
    """k-fold out-of-sample comparison at equal grain.

    Folds partition the target-bearing entity keys (an entity never straddles
    folds). Flat-dataset row predictions are averaged per entity key before
    scoring, then paired absolute errors feed the signed-rank test.

    Each dataset's keys, targets, folds and design columns are encoded once;
    a fold selects its train and test rows by index, so the cost is linear in
    the rows of both datasets. Flat rows whose key is not in ``tds`` are in
    no fold. Test rows with a null target are not scored.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(tds.table.key_columns) != 1 or len(ds0.table.key_columns) != 1:
        raise ValueError("comparison requires a single-column entity key")

    t_key = tds.table.column_index(tds.table.key_columns[0])
    keys = sorted(set(tds.table.cells[t_key]))
    if folds > len(keys):
        raise ValueError(f"{folds} folds but only {len(keys)} distinct keys")
    shuffled = list(keys)
    random.Random(seed).shuffle(shuffled)
    fold_of = {k: i % folds for i, k in enumerate(shuffled)}
    fold_sizes = [len(shuffled[f::folds]) for f in range(folds)]

    t_keys, t_y, t_fold = _fold_ids(tds, fold_of)
    f_keys, f_y, f_fold = _fold_ids(ds0, fold_of)
    t_known = ~np.isnan(t_y)
    f_known = ~np.isnan(f_y) & (f_fold >= 0)  # rows of keys in no fold never train
    position = {k: i for i, k in enumerate(keys)}
    f_key = np.fromiter((position.get(k, -1) for k in f_keys), np.int64, len(f_keys))
    actual = {k: y for k, y, known in zip(t_keys, t_y.tolist(), t_known) if known}
    t_design = OneHotDesign(tds.table, tds.target_column)
    f_design = OneHotDesign(ds0.table, ds0.target_column)

    tds_pred: dict[object, float] = {}
    ds0_pred: dict[object, float] = {}
    for f in range(folds):
        test = np.flatnonzero(t_known & (t_fold == f))
        preds = _fit_predict(t_design, t_y, np.flatnonzero(t_known & (t_fold != f)), test, ridge)
        for i, p in zip(test.tolist(), preds.tolist()):
            tds_pred[t_keys[i]] = p

        test = np.flatnonzero(f_fold == f)
        preds = _fit_predict(f_design, f_y, np.flatnonzero(f_known & (f_fold != f)), test, ridge)
        # each key's mean prediction, summed in row order as left_sum would
        n = np.bincount(f_key[test], minlength=len(keys))
        mean = (np.bincount(f_key[test], weights=preds, minlength=len(keys))
                / np.maximum(n, 1)).tolist()
        for i in np.flatnonzero(n).tolist():
            ds0_pred[keys[i]] = mean[i]

    scored = [k for k in keys if k in actual and k in tds_pred and k in ds0_pred]
    a = [actual[k] for k in scored]
    tds_report = regression_metrics(a, [tds_pred[k] for k in scored], value_range)
    ds0_report = regression_metrics(a, [ds0_pred[k] for k in scored], value_range)
    wil = wilcoxon_signed_rank([
        (abs(ds0_pred[k] - actual[k]), abs(tds_pred[k] - actual[k])) for k in scored
    ])
    return ComparisonReport(ds0=ds0_report, tds=tds_report, wilcoxon=wil,
                            n_entities=len(scored), folds=folds, fold_sizes=fold_sizes)
