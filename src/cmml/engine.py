"""Execute a TransformationPlan against a bound model.

Produces one flat training dataset per plan output (one row per
target-bearing instance, or per (instance, subtype) member for splits), a
naive fully-denormalized dataset for comparison, and a lineage manifest
recording every output column's origin entities, source attributes and
transform. One ``Derivations`` per command computes every derived attribute,
every entity's rank by key and every relationship's partner groups once; the
plan's steps and the naive flattener both read them. Each derived attribute
is one ``expr.eval_column`` over all rows of its entity. G4 summaries are
grouped reductions over one relationship's partner index
(``expr.group_reduce``, the kernel a derivation's aggregates run on), each a
whole-column numpy operation.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import dsl, eer
from . import expr as ex
from .binder import BoundModel
from .diagnostics import Report
from .expr import Groups
from .planner import PlanError, PlanOptions, TransformationPlan, derivation_order
from .tabular import Column, JoinRows, Table, table_to_csv_bytes
from .values import NO_TAGS, Vec, box, factorize, parse_cell

KIND_SUMMARY_ORDER = ("numeric", "nominal", "boolean", "text", "date")

_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(text: str) -> str:
    return _SANITIZE_RE.sub("_", text)


def feature_name(base: str, origins: list[str], transform: str, category: Optional[str] = None) -> str:
    """Systematic feature naming: every feature carries its entities of origin.

    raw/derived on one entity -> ENTITY_base; engineered features spanning
    several entities -> base_E1_..._Ek; summarized child features ->
    CHILD_base_<agg> (plain count is CHILD_count); category counts ->
    CHILD_base_<category>_count with the category sanitized to [A-Za-z0-9_].
    """
    if not origins:
        raise ValueError("feature_name needs at least one origin entity")
    child = origins[0]
    if transform in ("raw", "derived"):
        if len(origins) == 1:
            return f"{origins[0]}_{base}"
        return f"{base}_{'_'.join(origins)}"
    if transform == "count":
        return f"{child}_count"
    if transform in ("mean", "sum", "min", "max"):
        return f"{child}_{base}_{transform}"
    if transform == "category_count":
        return f"{child}_{base}_{_sanitize(category or '')}_count"
    if transform == "true_count":
        return f"{child}_{base}_true_count"
    if transform == "concat":
        return f"{child}_{base}_concat"
    raise ValueError(f"unknown transform kind {transform!r}")


# ---------------------------------------------------------------------------
# Working tables: one tabular.Table per predictor entity, named after it.
# Plan steps append lineage-carrying columns to them; emit clones the kept
# columns under their final names into the output dataset's Table.


@dataclass
class TrainingDataset:
    name: str
    table: Table
    target_column: str
    dropped_null_target: int = 0


def _null_for(min_participation: int) -> int:
    return 2 if min_participation == 0 else 1  # not applicable when optional, else unknown


def build_frames(bound: BoundModel, entities: list[str]) -> dict[str, Table]:
    """Working tables from the bound bundle, columns in effective-column order.
    A column is the bound table's ``Vec`` itself, which no step changes in
    place. Null codes arrive already classified by the binder."""
    frames: dict[str, Table] = {}
    for name in entities:
        ent = bound.schema.entity(name)
        table = bound.bundle.table(name)
        keys = bound.schema.key_columns(name)
        cols: list[Column] = []
        for a in bound.schema.effective_columns(name):
            gen, st = bound.schema.subtype_owner(name, a.name)
            cols.append(Column(
                name=a.name, kind=a.kind, key=a.name in keys,
                origin_entities=[st.name if st else name],
                source_attributes=[f"{st.name if st else name}.{a.name}"],
                guidelines=["G5"] if st else [],
                subtype=(gen.name, st.name) if st else None,
            ))
        cells = [table.cells[table.column_index(c.name)] for c in cols]
        frames[name] = Table(name, cols, key_columns=ent.key_names, cells=cells)
    return frames


# ---------------------------------------------------------------------------
# Derived values, shared by every consumer in one command


class Derivations:
    """The work one command shares between the plan's steps and the naive
    flattener: each derived attribute's cells, evaluated once; each entity's
    rows ranked by key, sorted once; and each relationship's partner groups,
    read off its child's rank. The key rank is the one row order of the
    command: a parent's children, an emitted dataset's rows and ds0's rows
    all follow it. Holds the command's clock.

    Cells are indexed like the rows of the entity's bound table, as are the
    columns of every working table and emitted dataset: a split or an emit
    selects rows by an index and copies no column. A derivation reads
    other attributes by their schema names; a derived attribute it reads is
    evaluated on demand (schema validation refuses cycles), so any request
    order gives the same cells.
    """

    def __init__(self, bound: BoundModel, clock: _dt.date):
        self.bound = bound
        self.clock = clock
        self._derived: dict[tuple[str, str], tuple[Vec, list[str]]] = {}
        self._groups: dict[str, Groups] = {}
        self._key_rank: dict[str, np.ndarray] = {}

    def derived(self, entity: str, attr_name: str) -> tuple[Vec, list[str]]:
        """The derived attribute's cells and its sorted, distinct evaluation
        diagnostics, evaluated on the first request."""
        key = (entity, attr_name)
        if key not in self._derived:
            self._derived[key] = self._evaluate(entity, attr_name)
        return self._derived[key]

    def groups(self, rel_name: str) -> Groups:
        """For each row of the relationship's parent, the child rows that the
        binder's ``parent_rows`` give it, in child-key order (``key_rank``): the
        order in which derivations and G4 summaries aggregate its children."""
        if rel_name not in self._groups:
            rel = self.bound.schema.relationship(rel_name)
            parent_row = self.bound.parent_rows[rel_name]
            rows = np.flatnonzero(parent_row >= 0)
            owner = parent_row[rows]
            order = np.lexsort((self.key_rank(rel.child_entity())[rows], owner))  # parent, then key
            sizes = np.bincount(owner, minlength=self.bound.bundle.table(rel.parent_entity()).row_count)
            self._groups[rel_name] = Groups(rows[order], sizes)
        return self._groups[rel_name]

    def key_rank(self, entity: str) -> np.ndarray:
        """Each row's position in the entity's rows sorted by the reprs of its
        key's cells, left to right, a null of either code printed None; ties
        keep their row order. One sort per table: the partner groups of its
        relationships, the naive flattener's row order and the emitted
        datasets' row order all read it."""
        if entity not in self._key_rank:
            table = self.bound.bundle.table(entity)
            order = list(range(table.row_count))
            for k in reversed(table.key_columns):  # stable sorts: the first key column decides
                order.sort(key=list(map(repr, box(table.cells[table.column_index(k)], NO_TAGS)))
                           .__getitem__)
            rank = np.empty(table.row_count, dtype=np.int64)
            rank[order] = np.arange(table.row_count)
            self._key_rank[entity] = rank
        return self._key_rank[entity]

    def _cells(self, entity: str, attr_name: str) -> Vec:
        """A stored attribute's cells, or a derived one's from ``derived``."""
        attr = self.bound.schema.entity(entity).attr(attr_name)
        if attr is not None and attr.is_derived:
            return self.derived(entity, attr_name)[0]
        table = self.bound.bundle.table(entity)
        return table.cells[table.column_index(attr_name)]

    def _evaluate(self, entity: str, attr_name: str) -> tuple[Vec, list[str]]:
        """One ``ex.eval_column`` over the entity's rows, its aggregates over
        the relationships' partner groups."""
        schema = self.bound.schema
        reads = schema.reads(entity, attr_name)
        columns = {name: self._cells(entity, name) for rel, _, name in reads if rel is None}
        related = {(rel, name): (None if name is None else self._cells(source, name), self.groups(rel))
                   for rel, source, name in reads if rel is not None}
        return ex.eval_column(schema.entity(entity).attr(attr_name).derivation,
                              self.bound.bundle.table(entity).row_count, columns, related, self.clock)


# ---------------------------------------------------------------------------
# Step implementations


class _Execution:
    def __init__(self, bound: BoundModel, binding: eer.TargetBinding, derivations: Derivations,
                 plan: Optional[TransformationPlan] = None):
        if derivations.bound is not bound:
            raise ValueError("the derivations were made for another bound model")
        self.plan = plan  # None when only derivations run (flatten_naive)
        self.bound = bound
        self.derivations = derivations
        self.warnings = Report()
        self.frames = build_frames(bound, list(binding.predictor_entities))
        # (entity, attribute) -> the working column of a derived attribute,
        # which a name collision may have renamed
        self.derived_columns: dict[tuple[str, str], Column] = {}
        # per output, its working table and root rows; the root frame and every row until a split
        root = self.frames[binding.target_entity]
        self.datasets: dict[str, tuple[Table, np.ndarray]] = {
            name: (root, np.arange(root.row_count)) for name in (plan.outputs if plan else ())}
        self.emitted: dict[str, TrainingDataset] = {}

    def _add(self, table: Table, col: Column, values: Vec) -> None:
        """Append a column to a working table, renaming it on a name collision."""
        taken = set(table.column_names)
        if col.name in taken:
            n = 2
            while f"{col.name}_{n}" in taken:
                n += 1
            self.warnings.warning("name-collision",
                                  f"feature name collision: {col.name!r} renamed to {col.name}_{n}")
            col.name = f"{col.name}_{n}"
        table.columns.append(col)
        table.cells.append(values)

    def _partners(self, parent: str, child: str, rel_name: str) -> Groups:
        """For each row of the parent frame, its partner rows in the child
        frame: the rows whose foreign key holds its key (``Derivations.groups``),
        or the one row that its own foreign key names (the binder's
        ``parent_rows``, read as they are)."""
        rel = self.bound.schema.relationship(rel_name)
        if rel.child_entity() == child:
            return self.derivations.groups(rel_name)
        partner = self.bound.parent_rows[rel_name]
        return Groups(partner[partner >= 0], (partner >= 0).astype(np.int64))

    def derive_attr(self, entity: str, attribute: str, expression: str) -> None:
        """Attach the derived attribute's shared cells as a working column that
        records ``expression``, and mark the columns it reads consumed."""
        schema = self.bound.schema
        frame = self.frames[entity]
        values, diags = self.derivations.derived(entity, attribute)
        for d in diags:
            self.warnings.warning("derived-value", f"{entity}.{attribute}: {d}")
        sources = set()
        for rel, source, name in schema.reads(entity, attribute):
            if rel is None:
                col = self.derived_columns.get((entity, name)) or frame.columns[frame.column_index(name)]
                col.consumed = True
            # count(REL) reads the child's rows, as the G4 count summary does
            sources.add(f"{source}.{name or '*'}")
        col = Column(
            name=attribute, kind=schema.entity(entity).attr(attribute).kind,
            origin_entities=[entity], source_attributes=sorted(sources),
            transform="derived", params={"expression": expression}, guidelines=["G2"],
        )
        self.derived_columns[entity, attribute] = col
        self._add(frame, col, values)

    def join_one_to_one(self, parent: str, child: str, relationship: str) -> None:
        """Attach the (at most one) partner row's feature columns to the parent."""
        rel = self.bound.schema.relationship(relationship)
        pframe = self.frames[parent]
        cframe = self.frames[child]
        partners = self._partners(parent, child, relationship)
        min_partners = rel.end_of(child).min
        if rel.is_one_to_one and rel.child_entity() != child:
            min_partners = 0
        absent_null = _null_for(min_partners)
        # each parent row's first partner in child-key order; the absent row appended last
        partner = np.full(len(partners), cframe.row_count)
        has = partners.sizes > 0
        partner[has] = partners.rows[partners.offsets[:-1][has]]
        for ci, col in enumerate(cframe.columns):
            if col.consumed or col.identifying:
                continue
            new = col.clone(name=col.name if col.prefixed else feature_name(col.name, [child], "raw"),
                            prefixed=True)
            new.params["relationship"] = relationship
            self._add(pframe, new, cframe.cells[ci].with_absent(absent_null).take(partner))

    def summarize_child(self, parent: str, child: str, relationship: str,
                        aggregates: list[str], top_k: int) -> None:
        """G4: one summary column per aggregate of each child column, every
        numeric, boolean and nominal summary one grouped reduction over the
        relationship's partner index (``Derivations.groups``)."""
        pframe = self.frames[parent]
        cframe = self.frames[child]
        groups = self.derivations.groups(relationship)
        self._add_summary(pframe, Column(
            name=feature_name("", [child], "count"), kind="numeric",
            origin_entities=[child], source_attributes=[f"{child}.*"],
            transform="count", params={"relationship": relationship},
            guidelines=["G4"], prefixed=True,
        ), groups.sizes.astype(float))

        numeric_aggs = [a for a in eer.AGG_SET_ALL if a != "count" and a in aggregates]
        for want_kind in KIND_SUMMARY_ORDER:
            for ci, col in enumerate(cframe.columns):
                if col.kind != want_kind or col.consumed or col.identifying:
                    continue
                # subtype-owned columns are not applicable to most child rows;
                # they surface only when their own entity's datasets are split
                if col.subtype is not None:
                    continue
                vec = cframe.cells[ci]

                def summary(transform: str, kind: str = "numeric", category: Optional[str] = None):
                    return self._agg_col(col, child, relationship, transform, kind, category)

                if want_kind == "numeric":
                    reduced = ex.group_reduce(numeric_aggs, vec.values, groups)
                    for agg, values in zip(numeric_aggs, reduced):
                        self._add_summary(pframe, summary(agg), values)
                elif want_kind == "nominal":
                    for category, counts in _category_counts(vec, groups, top_k):
                        self._add_summary(pframe, summary("category_count", category=category), counts)
                elif want_kind == "boolean":
                    true = (vec.values & (vec.null == 0))[groups.rows]
                    self._add_summary(pframe, summary("true_count"),
                                      np.bincount(groups.gid[true], minlength=len(groups)).astype(float))
                elif want_kind == "date":
                    extremes = ex.group_reduce(("min", "max"), ex.day_floats(vec), groups)
                    for agg, days in zip(("min", "max"), extremes):
                        null = np.isnan(days)
                        self._add(pframe, summary(agg, "date"),
                                  Vec(np.where(null, 1, days).astype(np.int64), null.astype(np.int8)))
                else:  # text: each group's known cells joined, in group order
                    known = vec.null[groups.rows] == 0
                    texts = Groups(groups.rows[known], np.bincount(groups.gid[known],
                                                                   minlength=len(groups)))
                    joined = np.array(list(map("\n".join, texts.split(vec.values))), dtype=object)
                    self._add(pframe, summary("concat", "text"),
                              Vec(joined, (texts.sizes == 0).astype(np.int8)))

    def _add_summary(self, table: Table, col: Column, values: np.ndarray) -> None:
        """Append a numeric summary, one float per group. A nan (a group
        without a value) and an overflow to ±inf become unknown; a warning
        counts the overflows."""
        replaced = int(np.count_nonzero(np.isinf(values)))
        if replaced:
            self.warnings.warning("non-finite-summary",
                                  f"{col.name}: {replaced} non-finite value(s) set to unknown")
        null = ~np.isfinite(values)
        self._add(table, col, Vec(np.where(null, math.nan, values), null.astype(np.int8)))

    def _agg_col(self, col: Column, child: str, rel_name: str, transform: str,
                 kind: str, category: Optional[str] = None) -> Column:
        origins = [child] + [o for o in col.origin_entities if o != child]
        params = {"relationship": rel_name, "source_column": col.name}
        if category is not None:
            params["category"] = category
        return Column(
            name=feature_name(col.name, [child], transform, category=category),
            kind=kind,
            origin_entities=origins,
            source_attributes=list(col.source_attributes),
            transform=transform,
            params=params,
            guidelines=sorted(set(col.guidelines) | {"G4"}),
            prefixed=True,
            subtype=col.subtype,
        )

    # -- splitting / imputation / emission --------------------------------------

    def subtype_split(self, generalization: str) -> None:
        """Each subtype's dataset: a table of the root frame's own columns but
        its siblings', and the root rows that are its members."""
        gen = self.bound.schema.generalization(generalization)
        root = self.frames[self.plan.binding.target_entity]
        for st in gen.subtypes:
            name = f"{self.plan.task}_{st.name}"
            # sibling subtypes' columns are excluded entirely
            keep_cols = [i for i, c in enumerate(root.columns)
                         if c.subtype is None or c.subtype[0] != gen.name or c.subtype[1] == st.name]
            held = self.bound.subtype_rows[gen.name][st.name]
            members = np.flatnonzero(held >= 0)
            frame = Table(root.name, [root.columns[i].clone() for i in keep_cols],
                          key_columns=root.key_columns, cells=[root.cells[i] for i in keep_cols])
            if st.from_table:
                self._join_membership_table(frame, gen, st, held)
            if not members.size:
                self.warnings.warning("empty-subtype",
                                      f"subtype {st.name} has zero members; dataset {name} is empty")
            self.datasets[name] = (frame, members)

    def _join_membership_table(self, frame: Table, gen: eer.Generalization, st: eer.Subtype,
                               held: np.ndarray) -> None:
        """Attach the subtype's attributes from its membership table: each
        root row's ``held`` row, an absent row where it is -1 (no member)."""
        mt = self.bound.bundle.table(st.name)
        for a in st.attributes:
            self._add(frame, Column(
                name=a.name, kind=a.kind,
                origin_entities=[st.name], source_attributes=[f"{st.name}.{a.name}"],
                guidelines=["G5"], subtype=(gen.name, st.name),
            ), mt.cells[mt.column_index(a.name)].with_absent(2).take(held))

    def impute_columns(self, dataset: str, strategy: str) -> None:
        """Fill the unknown cells of the dataset's rows by a fit on those rows
        alone, in a new root-length ``Vec``: a sibling sharing the column keeps its cells."""
        frame, rows = self.datasets[dataset]
        target = self.plan.binding.target_attr
        const = strategy[len("constant:"):] if strategy.startswith("constant:") else None
        for ci, col in enumerate(frame.columns):
            if col.consumed or col.name == target or col.identifying:
                continue
            vec = frame.cells[ci]
            unknown = rows[vec.null[rows] == 1]
            count = len(unknown)
            if not count:
                continue
            if const is not None:
                try:
                    fill = parse_cell(const, col.kind)
                    if fill is None:
                        raise ValueError("the value is empty")
                except ValueError as exc:
                    raise PlanError(f"dataset {dataset}: column {col.name!r}: "
                                    f"bad impute constant {const!r}: {exc}")
                kind = "imputed_const"
            else:
                if col.kind == "text":
                    self.warnings.warning(
                        "not-imputed",
                        f"dataset {dataset}: text column {col.name!r} is not imputed under "
                        f"mean_mode; {count} unknown cell(s) left null")
                    continue
                fill, kind = _mean_mode_fill(vec, rows, col.kind)
                if fill is None:
                    self.warnings.warning(
                        "not-imputed",
                        f"dataset {dataset}: column {col.name!r} has no known values; left null")
                    continue
            if _non_finite(fill):
                self.warnings.warning(
                    "not-imputed",
                    f"dataset {dataset}: column {col.name!r} has a non-finite fill; left null")
                continue
            # a new Vec: the column may be shared, e.g. with the derivations
            values, null = vec.values.copy(), vec.null.copy()
            values[unknown] = fill.toordinal() if isinstance(fill, _dt.date) else fill
            null[unknown] = 0
            frame.cells[ci] = Vec(values, null)
            col.imputed_cells += count
            col.params = dict(col.params, imputation={"kind": kind, "fill": _jsonable(fill),
                                                      "base_transform": col.transform})
            col.transform = kind
            if "G3" not in col.guidelines:
                col.guidelines = sorted(set(col.guidelines) | {"G3"})

    def emit_dataset(self, dataset: str) -> None:
        """The dataset's table, a one-block view over its working columns:
        keys, then predictors, the target last, each column cloned under its
        final name; its rows with a null target dropped, the others in the
        order of the root entity's rows by key (``Derivations.key_rank``)."""
        frame, rows = self.datasets[dataset]
        target_attr = self.plan.binding.target_attr
        keys, predictors, target = [], [], None
        for ci, col in enumerate(frame.columns):
            if col.name in frame.key_columns:
                keys.append(ci)
            elif col.name == target_attr and not col.prefixed:
                target = ci
            elif not col.consumed and not col.identifying:
                predictors.append(ci)
        if target is None:
            raise ValueError(f"dataset {dataset}: target column {target_attr!r} missing")
        ordered = keys + predictors + [target]

        columns: list[Column] = []
        names_taken: set[str] = set()
        for ci in ordered:
            col = frame.columns[ci]
            final = col.output_name()
            base = final
            n = 2
            while final in names_taken:
                final = f"{base}_{n}"
                n += 1
                self.warnings.warning("name-collision",
                                      f"feature name collision at emit: {base!r} renamed to {final!r}")
            names_taken.add(final)
            columns.append(col.clone(name=final, prefixed=True))

        known = rows[frame.cells[target].null[rows] == 0]
        rank = self.derivations.key_rank(self.plan.binding.target_entity)
        # null codes survive in memory (CSV renders both as empty)
        view = JoinRows([[frame.cells[ci] for ci in ordered]], [known[np.argsort(rank[known])]])
        table = Table(dataset, columns, view, key_columns=[c.name for c in columns[:len(keys)]])
        self.emitted[dataset] = TrainingDataset(dataset, table, target_column=columns[-1].name,
                                                dropped_null_target=len(rows) - len(known))


def _role(ds: TrainingDataset, column: str) -> str:
    if column in ds.table.key_columns:
        return "key"
    return "target" if column == ds.target_column else "predictor"


def _feature_records(ds: TrainingDataset) -> list[dict]:
    """The manifest's lineage record of every column of an emitted dataset."""
    return [{
        "name": col.name,
        "role": _role(ds, col.name),
        "origin_entities": list(col.origin_entities),
        "source_attributes": list(col.source_attributes),
        "transform": {"kind": col.transform, "params": _jsonable(col.params)},
        "guidelines": sorted(set(col.guidelines) | {"G1"}),
        "imputed_cells": col.imputed_cells,
    } for col in ds.table.columns]


def _non_finite(v: object) -> bool:
    """An overflow to ±inf, or nan: never written to a numeric cell."""
    return isinstance(v, float) and not math.isfinite(v)


def _category_counts(vec: Vec, groups: Groups, top_k: int):
    """``(category, counts)`` per kept category, then ``OTHER`` when any is
    pooled: the ``top_k`` most frequent categories over every child row (in a
    group or not; ties by value) and each group's count of each, as floats."""
    distinct, codes = factorize(vec)
    # by frequency, then value: distinct is sorted, and the sort is stable
    ordered = np.argsort(-np.bincount(codes[codes >= 0], minlength=len(distinct)), kind="stable")
    kept = [distinct[j] for j in ordered[:top_k].tolist()]
    # each cell's kept position; the pooled share code len(kept); -1: null
    position = np.empty(len(distinct) + 1, np.int64)
    position[ordered] = np.minimum(np.arange(len(distinct)), len(kept))
    position[-1] = -1
    codes = position[codes[groups.rows]]
    known = codes >= 0
    width = len(kept) + 1
    counts = np.bincount(groups.gid[known] * width + codes[known],
                         minlength=len(groups) * width).reshape(len(groups), width).astype(float)
    yield from zip(kept, counts.T)
    if len(distinct) > len(kept):
        yield "OTHER", counts[:, -1]


def _mean_mode_fill(vec: Vec, rows: np.ndarray, kind: str):
    """The fill of a column's unknown cells and its transform kind, from
    the known cells of its ``rows``; (None, None) when they have none."""
    known = vec.values[rows[vec.null[rows] == 0]]
    if not known.size or kind not in ("numeric", "nominal", "boolean", "date"):
        return None, None
    if kind == "numeric":
        # bincount adds in order: left_sum's bits
        total = np.bincount(np.zeros(known.size, dtype=np.intp), weights=known)[0]
        return float(total) / known.size, "imputed_mean"
    if kind == "date":
        days = np.sort(known)
        return _dt.date.fromordinal(int(days[(len(days) - 1) // 2])), "imputed_mean"  # lower median
    # the most frequent value; a tie goes to the first in sorted order, which
    # is the least by str (false before true)
    distinct, codes = factorize(vec.take(rows))
    return distinct[int(np.argmax(np.bincount(codes[codes >= 0])))], "imputed_mode"


def _jsonable(v):
    if isinstance(v, _dt.date):
        return v.isoformat()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# Plan execution


def execute(plan: TransformationPlan, bound: BoundModel,
            derivations: Derivations) -> tuple[list[TrainingDataset], Report]:
    """Run the plan's steps in order, under ``plan.options``; return the
    emitted datasets and the run's coded warnings. Derived attributes come
    from ``derivations``; rows with a null target are dropped and counted.
    """
    if not bound.ok:
        raise ValueError("bound model has error diagnostics; fix the data before executing")
    st = _Execution(bound, plan.binding, derivations, plan)
    for step in plan.steps:
        getattr(st, step.kind)(**step.params)  # a method per planner.STEP_KINDS entry

    _warn_target_leakage(plan, bound, st)
    return [st.emitted[name] for name in plan.outputs], st.warnings


def prepare(plan: TransformationPlan, bound: BoundModel, derivations: Derivations,
            out_dir: Optional[str | Path] = None) -> tuple[list[TrainingDataset], dict]:
    """``execute`` plus the lineage manifest, and with ``out_dir`` the dataset
    CSVs and ``manifest.json`` written there. Identical inputs produce
    byte-identical CSV and manifest outputs."""
    datasets, warnings = execute(plan, bound, derivations)
    manifest = _build_manifest(plan, bound, warnings, datasets)
    if out_dir is not None:
        _write_outputs(Path(out_dir), datasets, manifest, plan.options)
    return datasets, manifest


def _warn_target_leakage(plan: TransformationPlan, bound: BoundModel, st: _Execution) -> None:
    ent = bound.schema.entity(plan.binding.target_entity)
    attr = ent.attr(plan.binding.target_attr)
    if attr is None or attr.derivation is None:
        return
    leaked = {f"{child}.{name}" for rel, child, name in bound.schema.reads(ent.name, attr.name)
              if rel is not None and name is not None}
    for ds in st.emitted.values():
        for col in ds.table.columns:
            shared = leaked & set(col.source_attributes)
            if shared and _role(ds, col.name) == "predictor":
                st.warnings.warning(
                    "target-leakage",
                    f"target {plan.binding.target_entity}.{plan.binding.target_attr} is derived from "
                    f"{sorted(shared)} which also feeds predictor {col.name!r}; possible target leakage")
                return


def _build_manifest(plan, bound, warnings: Report, datasets) -> dict:
    from . import __version__

    table_hashes = {name: t.source_sha256 for name, t in sorted(bound.bundle.tables.items())}
    schema_text = dsl.print_schema(bound.schema).text
    return {
        "tool_version": __version__,
        "seed": plan.options.seed,
        "schema_sha256": hashlib.sha256(schema_text.encode("utf-8")).hexdigest(),
        "table_sha256": table_hashes,
        "task": plan.task,
        "target": f"{plan.binding.target_entity}.{plan.binding.target_attr}",
        "naming_policy": "G1",
        "steps": [s.to_dict() for s in plan.steps],
        "datasets": {
            ds.name: {
                "rows": ds.table.row_count,
                "dropped_null_target_rows": ds.dropped_null_target,
                "features": _feature_records(ds),
            }
            for ds in datasets
        },
        "warnings": sorted({d.message for d in warnings.diagnostics}),
    }


def _write_outputs(out_dir: Path, datasets: list[TrainingDataset], manifest: dict,
                   options: PlanOptions) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # a path is listed before its write begins, so a failed write's partial
    # file is removed with the others
    written: list[Path] = []
    try:
        for ds in datasets:
            data = table_to_csv_bytes(ds.table)
            written.append(out_dir / f"{ds.name}.csv")
            written[-1].write_bytes(data)
            if options.holdout:
                _write_holdout(out_dir, ds, options.holdout, written)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        written.append(out_dir / "manifest.json")
        written[-1].write_text(text, encoding="utf-8")
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def _write_holdout(out_dir: Path, ds: TrainingDataset, fraction: float,
                   written: list[Path]) -> None:
    """Deterministic, seed-independent holdout: split by key digest into two views."""
    train, test = [], []
    threshold = int(fraction * 2**32)
    composite = len(ds.table.key_columns) > 1
    for i, key in enumerate(ds.table.row_keys()):
        text = "|".join(map(str, key)) if composite else str(key)
        h = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")
        (test if h < threshold else train).append(i)
    rows = ds.table.rows
    for suffix, picked in (("train", train), ("test", test)):
        part = JoinRows(rows.blocks, [idx[np.array(picked, dtype=np.int64)] for idx in rows.index])
        t = Table(f"{ds.name}_{suffix}", ds.table.columns, part, key_columns=ds.table.key_columns)
        data = table_to_csv_bytes(t)
        written.append(out_dir / f"{ds.name}_{suffix}.csv")
        written[-1].write_bytes(data)


# ---------------------------------------------------------------------------
# Naive flat dataset (no summarization)


def _expand(index: list[np.ndarray], parent: np.ndarray, partners: Groups,
            absent: int) -> list[np.ndarray]:
    """The join index after one more edge: each output row repeated once per
    partner of its parent row (``parent``), in partner order, with the
    partner's row appended as a new last block column. A parent row without
    partners, and the absent parent row ``len(partners)``, take the child's
    absent row ``absent`` once."""
    sizes = np.append(partners.sizes, 0)
    flat = np.append(partners.rows, absent)
    # where each parent row's partners start in flat; the absent entry when none
    starts = np.where(sizes > 0, partners.offsets, len(partners.rows))
    n = np.maximum(sizes, 1)[parent]
    out_starts = np.cumsum(n) - n
    child = flat[np.arange(int(n.sum())) - np.repeat(out_starts - starts[parent], n)]
    return [np.repeat(idx, n) for idx in index] + [child]


def flatten_naive(bound: BoundModel, binding: eer.TargetBinding,
                  derivations: Derivations) -> TrainingDataset:
    """Left-join chain along the spanning tree at the deepest grain, with G1
    naming applied; the target repeats per row exactly as a naive export
    would. Derived attributes are attached in the plan's order
    (``derivation_order``) from ``derivations``, so after ``execute`` on the
    same ``derivations`` none is evaluated again.

    Each entity keeps its unconsumed columns and its key. The rows come out
    sorted by each entity's key (``Derivations.key_rank``), the target
    entity's first, then in join order, with no sort of their own: the index
    starts as the root's rows in key order, and each edge repeats a row once
    per partner, in child-key order (``Derivations.groups``); a reverse edge
    gives at most one. A row whose partner is absent is the only row with its
    prefix, so the absent row needs no place in the key order.

    The join stays factorized: the table's rows are a ``JoinRows`` view over
    each entity's projected cells and one block-row index per entity, so the
    cost is linear in entity cells plus output rows."""
    if not bound.ok:
        raise ValueError("bound model has error diagnostics; fix the data before flattening")
    st = _Execution(bound, binding, derivations)
    for entity, attr in derivation_order(bound.schema, binding):
        st.derive_attr(entity, attr.name, ex.pretty_print(attr.derivation))
    frames = st.frames
    root = binding.target_entity
    root_frame = frames[root]
    target = root_frame.columns[root_frame.column_index(binding.target_attr)]
    target.consumed = False  # kept even when a derivation reads it, as emit keeps it

    columns: list[Column] = []
    blocks: list[list[Vec]] = []
    entities = [root] + [edge.child for edge in binding.spanning_tree]
    for name in entities:
        # the all-null row of an absent partner appended last, unknown (1):
        # the naive join does not know why a partner is absent
        frame = frames[name]
        keep = [ci for ci, c in enumerate(frame.columns)
                if not c.consumed or c.name in frame.key_columns]
        columns += [frame.columns[ci].clone(name=frame.columns[ci].output_name(), prefixed=True)
                    for ci in keep]
        blocks.append([frame.cells[ci].with_absent(1) for ci in keep])

    # One index array per entity in join order, starting from the root's rows
    # in key order; an absent partner is the block's last, all-null row, and
    # an absent parent's row carries that absence on.
    position = {name: k for k, name in enumerate(entities)}
    index = [np.argsort(derivations.key_rank(root))]
    for edge in binding.spanning_tree:
        index = _expand(index, index[position[edge.parent]],
                        st._partners(edge.parent, edge.child, edge.relationship),
                        frames[edge.child].row_count)
    rows = JoinRows(blocks, index)
    root_keys = [root_frame.columns[root_frame.column_index(k)].output_name()
                 for k in root_frame.key_columns]
    return TrainingDataset("ds0", Table("ds0", columns, rows, key_columns=root_keys),
                           target_column=target.output_name())
