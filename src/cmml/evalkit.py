"""Metrics, a closed-form ridge/OLS baseline learner, a signed-rank test and
a seeded synthetic relational generator, used to demonstrate the flat-vs-
summarized dataset performance gap at desk scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, repeat
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
        warnings.append("every actual is equal: r2 defined as 1 when SSres=0, else 0")
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
    a, b = np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs)).reshape(-1, 2).T
    diffs = (a - b)[a != b]
    bad = diffs[~np.isfinite(diffs)]
    if len(bad):
        raise ValueError(f"signed-rank test needs finite paired differences, got {float(bad[0])}")
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(n_nonzero=0, t_plus=0.0, sigma_t=0.0, z=0.0,
                              p_two_tailed=1.0, degenerate=True)
    # each distinct magnitude's tie count and mid-rank; ranks are halves and
    # tie terms eighths, so these sums are exact in any order
    _, group, t = np.unique(np.abs(diffs), return_inverse=True, return_counts=True)
    ends = np.cumsum(t)
    mid_rank = (ends - t + 1 + ends) / 2.0  # mean of ranks start + 1 .. end
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum((k**3 - k) / 48.0 for k in t[t > 1].tolist())
    t_plus = sum(mid_rank[group[diffs > 0]].tolist())
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
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    with np.errstate(over="ignore", invalid="ignore"):  # as in _solve
        return _solve(design.T @ design, design.T @ y, ridge)


def _solve(gram: np.ndarray, moment: np.ndarray, ridge: float) -> np.ndarray:
    """The normal equations (gram + ridge * I) beta = moment, where gram is
    XᵀX and moment Xᵀy of a design X whose first column is ones."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    # features near 1e308 overflow to nan coefficients quietly: callers check finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        gram = gram + ridge * np.eye(len(gram))
        try:
            if ridge == 0 and np.linalg.matrix_rank(gram) < len(gram):
                raise np.linalg.LinAlgError("singular")
            return np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            raise ValueError("singular system; retry with ridge > 0")


def ols_predict(beta: np.ndarray, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    return np.hstack([np.ones((X.shape[0], 1)), X]) @ beta


class OneHotDesign:
    """Ridge fits over a Table's design: the intercept's ones, the numeric
    columns (nulls filled with the train mean), booleans as 0/1 (a null reads
    0), then per nominal a 0/1 column per train category but the lexically
    last (the reference level). The table's key columns, the target, every
    key, foreign key and identifier (``Column.identifying``), dates and text
    are excluded.

    Each column is encoded once in its block of ``Table.rows`` (an emitted
    dataset's one block, ds0's block per entity), read off its ``Vec``:
    numeric and boolean columns in one float array (a numeric null is its
    nan), nominals as codes into their sorted categories (``nominal``,
    ``values.factorize``, -1 = null); the target is gathered to one float
    per row (``target``, nan = null).

    A fit comes from sums, not from a train design. ``fit(rows)`` encodes
    rows with a known target once, as ``Z = [X0 | N]``: ``X0`` has the
    intercept, the dense columns with numeric nulls read 0 and a column for
    every category of every nominal, ``N`` marks the nulls of each numeric
    column that has one (``nullable``). A join block counts only the rows
    that some row takes, so a view's design equals its materialized rows'.
    ``fit`` returns ``(ZᵀZ, Zᵀy)``, which add over disjoint rows.
    ``solve(sums, ridge)`` adds such statistics, keeps
    their numeric means and categories, and returns the ridge coefficients
    over ``transform``'s columns: with M the mean of each nullable column in
    its numeric column's place, the filled design is ``X = X0 + N·M``, so
    ``XᵀX = A + BM + (BM)ᵀ + MᵀCM`` and ``Xᵀy = a + Mᵀc`` from the blocks
    ``A = X0ᵀX0``, ``B = X0ᵀN``, ``C = NᵀN``, ``a = X0ᵀy`` and ``c = Nᵀy``.
    ``transform(rows)`` returns any rows' design over the kept columns, nulls
    filled with the means. A design is one C-order array, filled by a row
    gather per block and a scatter of 1.0 into its category columns.
    """

    _CHUNK = 8192  # design rows gathered from a block at a time

    def __init__(self, table: Table, target_column: str):
        skip = set(table.key_columns) | {target_column}
        kinds = [None if c.name in skip or c.identifying else c.kind for c in table.columns]
        self.n_numeric = kinds.count("numeric")
        self.n_dense = self.n_numeric + kinds.count("boolean")
        numeric, boolean = 1, 1 + self.n_numeric  # the next design column of each kind
        self.blocks = []  # (index, dense values, (design, values) column runs, nominals)
        nullable = [np.zeros(0, bool)]
        self.width, self.x0_slots = 1 + self.n_dense, []  # X0's width and per-block slots
        rows = table.rows
        for cells, index in zip(rows.blocks, rows.index):
            kind, kinds = kinds[:len(cells)], kinds[len(cells):]
            dense = [j for k in ("numeric", "boolean") for j in range(len(cells)) if kind[j] == k]
            values = np.empty((len(cells[0]) if cells else 0, len(dense)))
            for i, j in enumerate(dense):
                vec = cells[j]  # a numeric null is nan already; a boolean one reads 0
                values[:, i] = vec.values if kind[j] == "numeric" else vec.values & (vec.null == 0)
            # only the block rows some row reaches count: a view's child block
            # may end in an absent-partner null row that no row takes
            reached = np.zeros(len(values), bool)
            reached[index] = True
            w = kind.count("numeric")  # values holds w numeric, then boolean columns
            nullable.append(np.isnan(values[reached, :w]).any(axis=0))
            runs = ((slice(numeric, numeric + w), slice(0, w)),
                    (slice(boolean, boolean + len(dense) - w), slice(w, len(dense))))
            numeric, boolean = numeric + w, boolean + len(dense) - w
            nominal = [factorize(cells[j])[1] for j in range(len(cells)) if kind[j] == "nominal"]
            self.blocks.append((index, values, runs, nominal))
            # per nominal, each code's X0 column (-1 for a code no row
            # reaches), then -1 for a null's code -1
            self.x0_slots.append([])
            for codes in nominal:
                seen = np.zeros(int(codes.max(initial=-1)) + 2, bool)
                seen[codes[reached]] = True
                seen[-1] = False
                slot = np.full(len(seen), -1, np.int64)
                slot[seen] = self.width + np.arange(np.count_nonzero(seen))
                self.x0_slots[-1].append(slot)
                self.width += np.count_nonzero(seen)
        self.nominal = [codes for block in self.blocks for codes in block[3]]
        self.target = _encoded(table, table.column_index(target_column), lambda y: y.values)
        self.nullable = np.flatnonzero(np.concatenate(nullable))  # N's numeric columns

    def fit(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ZᵀZ, Zᵀy)`` of the rows, which must have a known target."""
        q, p = self.n_numeric, self.width
        Z = self._design(rows, self.x0_slots, p + len(self.nullable))
        null = np.isnan(Z[:, 1:1 + q])
        Z[:, p:] = null[:, self.nullable]
        np.copyto(Z[:, 1:1 + q], 0.0, where=null)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _solve
            return Z.T @ Z, Z.T @ self.target[rows]

    def solve(self, sums: Sequence[tuple[np.ndarray, np.ndarray]], ridge: float) -> np.ndarray:
        """The ridge coefficients over ``transform``'s columns, fitted on the
        rows whose ``fit`` statistics are ``sums``."""
        p, nullable = self.width, self.nullable
        with np.errstate(over="ignore", invalid="ignore"):
            S = sum(s for s, _ in sums)
            t = sum(t for _, t in sums)
            # row 0 holds each column's sum: the row count, the numeric sums
            # with nulls read 0, the category counts and the null counts
            known = np.full(self.n_numeric, S[0, 0])
            known[nullable] -= S[0, p:]
            self.means = S[0, 1:1 + self.n_numeric] / np.maximum(known, 1)  # 0 where none known
            # M is zero but for each nullable column's mean m in its numeric
            # column's place (at), so its products scale and scatter columns
            m, at = self.means[nullable], 1 + nullable
            BM = S[:p, p:] * m
            gram = S[:p, :p].copy()
            gram[:, at] += BM
            gram[at, :] += BM.T
            gram[np.ix_(at, at)] += m[:, None] * S[p:, p:] * m
            moment = t[:p].copy()
            moment[at] += t[p:] * m
        columns, self.kept, self.slots = [np.arange(1 + self.n_dense)], [], []
        column = 1 + self.n_dense
        for x0_slots in self.x0_slots:
            self.slots.append([])
            for slot in x0_slots:
                count = np.where(slot[:-1] >= 0, S[0, slot[:-1]], 0.0)  # per code
                kept = np.flatnonzero(count)[:-1]
                columns.append(slot[kept])
                # each code's design column, -1 for none; a null's -1 reads the last
                slot = np.full(len(slot), -1, np.int64)
                slot[kept] = column + np.arange(len(kept))
                column += len(kept)
                self.kept.append(kept)
                self.slots[-1].append(slot)
        kept = np.concatenate(columns)
        return _solve(gram[np.ix_(kept, kept)], moment[kept], ridge)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        X = self._design(rows, self.slots, 1 + self.n_dense + sum(map(len, self.kept)))
        numeric = X[:, 1:1 + self.n_numeric]
        np.copyto(numeric, self.means, where=np.isnan(numeric))
        return X

    def _design(self, rows: np.ndarray, slots: list, width: int) -> np.ndarray:
        """The rows' design over ``width`` columns, nulls still nan; each
        nominal's codes go to their ``slots`` column (-1 = none)."""
        X = np.zeros((len(rows), width))
        X[:, 0] = 1.0
        for (index, values, runs, nominal), block_slots in zip(self.blocks, slots):
            at = index[rows]
            for s in range(0, len(at) if values.shape[1] else 0, self._CHUNK):
                part = values[at[s:s + self._CHUNK]]
                for design, value in runs:
                    X[s:s + self._CHUNK, design] = part[:, value]
            for codes, slot in zip(nominal, block_slots):
                columns = slot[codes[at]]
                hit = np.flatnonzero(columns >= 0)
                X[hit, columns[hit]] = 1.0
        return X


def _encoded(table: Table, j: int, encode) -> np.ndarray:
    """Column ``j`` of the table, encoded: its block column once
    (``Table.column_cells``), then gathered to one value per row."""
    vec, index = table.column_cells(j)
    return encode(vec)[index]


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
        for name, value in vars(spec).items():  # each field of its default's type
            default = cls.__dataclass_fields__[name].default
            if isinstance(default, tuple):
                ok = bool(value) and all(type(c) is str for c in value)
            elif type(default) is int:
                ok = type(value) is int
            else:
                ok = type(value) in (int, float) and math.isfinite(value)
            if not ok:
                raise ValueError(f"invalid generator spec: bad {name} {value!r}")
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


def _positions(dataset: TrainingDataset, position: dict) -> np.ndarray:
    """Each row's key position in ``position`` (-1 = none)."""
    table = dataset.table
    return _encoded(table, table.column_index(table.key_columns[0]),
                    lambda keys: np.fromiter(map(position.get, box(keys), repeat(-1)), np.int64))


def _fold_predictions(design: OneHotDesign, fold: np.ndarray, trainable: np.ndarray,
                      testable: np.ndarray, folds: int, ridge: float):
    """Per fold, its testable rows and their predictions by the fit on the
    other folds' trainable rows. Each fold's trainable rows are encoded once,
    for the statistics, and its testable rows once more, for the predictions."""
    sums = [design.fit(np.flatnonzero(trainable & (fold == g))) for g in range(folds)]
    for f in range(folds):
        beta = design.solve([s for g, s in enumerate(sums) if g != f], ridge)
        test = np.flatnonzero(testable & (fold == f))
        yield test, design.transform(test) @ beta


def compare_datasets(ds0: TrainingDataset, tds: TrainingDataset, value_range: float,
                     folds: int = 5, seed: int = 0, ridge: float = 1e-6) -> ComparisonReport:
    """k-fold out-of-sample comparison at equal grain.

    Folds partition the target-bearing entity keys (an entity never straddles
    folds). Flat-dataset row predictions are averaged per entity key before
    scoring, then paired absolute errors feed the signed-rank test.

    Folds, actuals and predictions are arrays over the sorted ``tds`` keys and
    a fold selects rows by index. Each arm's fold fits come from per-fold
    sums (``OneHotDesign.fit``, ``solve``), so every row is encoded twice, for
    its fold's statistics and for its prediction, and the cost is linear in
    rows. Flat rows whose key is not in ``tds`` are in no fold. Test rows with
    a null target are not scored.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(tds.table.key_columns) != 1 or len(ds0.table.key_columns) != 1:
        raise ValueError("comparison requires a single-column entity key")

    t_key = tds.table.column_index(tds.table.key_columns[0])
    keys = sorted(set(box(tds.table.column_vec(t_key))))
    if folds > len(keys):
        raise ValueError(f"{folds} folds but only {len(keys)} distinct keys")
    n = len(keys)
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)  # the keys' permutation: it depends on n alone
    fold = np.empty(n, np.int64)
    fold[shuffled] = np.arange(n) % folds  # each key's place in the shuffle, mod folds
    fold_sizes = [len(shuffled[f::folds]) for f in range(folds)]

    position = {k: i for i, k in enumerate(keys)}
    t_pos, f_pos = _positions(tds, position), _positions(ds0, position)
    t_fold = fold[t_pos]
    f_fold = np.where(f_pos >= 0, fold[f_pos], -1)
    t_design, f_design = (OneHotDesign(d.table, d.target_column) for d in (tds, ds0))
    t_known = ~np.isnan(t_design.target)
    f_known = ~np.isnan(f_design.target) & (f_fold >= 0)  # rows of keys in no fold never train

    # a key is scored once both arms predicted it, whatever the value
    actual, tds_pred, ds0_pred = np.zeros(n), np.zeros(n), np.zeros(n)
    in_tds, in_ds0 = np.zeros(n, bool), np.zeros(n, bool)
    for test, preds in _fold_predictions(t_design, t_fold, t_known, t_known, folds, ridge):
        tds_pred[t_pos[test]] = preds
        actual[t_pos[test]], in_tds[t_pos[test]] = t_design.target[test], True
    for test, preds in _fold_predictions(f_design, f_fold, f_known, f_fold >= 0, folds, ridge):
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
