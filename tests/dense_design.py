"""The dense evaluation design that ``evalkit`` used before it built each
fold's design from per-block encodings, kept as the reference the
differential tests in ``test_design_reference.py`` compare against.

``OneHotDesign`` materializes one float matrix of every row by every
category at construction; ``fit`` and ``transform`` gather from it, and
``ols_fit`` / ``ols_predict`` prepend the intercept with ``np.hstack``.
``compare_datasets`` keeps a Python key per flat row and one prediction
dict per arm. The metrics, the signed-rank test and the report types are
``evalkit``'s own.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from cmml.engine import TrainingDataset
from cmml.evalkit import ComparisonReport, regression_metrics, wilcoxon_signed_rank
from cmml.tabular import Table
from cmml.values import NOT_APPLICABLE, UNKNOWN, box, is_null


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
    "numeric": lambda cells: np.array([np.nan if is_null(v) else v for v in cells], dtype=float),
    "boolean": lambda cells: np.array([1.0 if v is True else 0.0 for v in cells], dtype=float),
    "nominal": _nominal_codes,
}


def _encoded(table: Table, j: int, encode) -> np.ndarray:
    """Column ``j`` of the table, encoded: a join view's block cells once,
    then gathered to one value per row."""
    cells, index = table.column_cells(j)
    values = encode(box(cells))
    return values if index is None else values[index]


def _fold_ids(dataset: TrainingDataset, fold_of: dict) -> tuple[list, np.ndarray, np.ndarray]:
    """The key of each row of a dataset, the target as floats (nan = null)
    and the fold of each row (-1 = key not folded)."""
    table = dataset.table
    keys, index = table.column_cells(table.column_index(table.key_columns[0]))
    keys = box(keys)
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
    keys = sorted(set(box(tds.table.cells[t_key])))
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
