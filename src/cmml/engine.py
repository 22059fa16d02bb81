"""Execute a TransformationPlan against a bound model.

Produces one flat training dataset per plan output (one row per
target-bearing instance, or per (instance, subtype) member for splits), a
naive fully-denormalized dataset for comparison, and a lineage manifest
recording every output column's origin entities, source attributes and
transform. One ``Derivations`` per command computes every derived attribute
and every relationship's partner groups once; the plan's steps and the naive
flattener both read them. Each derived attribute is one ``expr.eval_column``
over all rows of its entity. G4 summaries are grouped reductions over one
relationship's partner index (``expr.group_reduce``, the kernel a
derivation's aggregates run on), each a whole-column numpy operation.
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
from .values import Vec, factorize, parse_cell, reprs

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
        cols: list[Column] = []
        for a in bound.schema.effective_columns(name):
            gen, st = bound.schema.subtype_owner(name, a.name)
            cols.append(Column(
                name=a.name, kind=a.kind,
                origin_entities=[st.name if st else name],
                source_attributes=[f"{st.name if st else name}.{a.name}"],
                guidelines=["G5"] if st else [],
                emit=a.kind != "identifier",
                subtype=(gen.name, st.name) if st else None,
            ))
        cells = [table.cells[table.column_index(c.name)] for c in cols]
        frames[name] = Table(name, cols, key_columns=ent.key_names, cells=cells)
    return frames


# ---------------------------------------------------------------------------
# Derived values, shared by every consumer in one command


class Derivations:
    """The work one command shares between the plan's steps and the naive
    flattener: each derived attribute's cells, evaluated once, and each
    relationship's partner groups, sorted once. Holds the command's clock.

    Cells are indexed like the rows of the entity's bound table, which the
    working tables keep until they are split or emitted. A derivation reads
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
        """For each row of the relationship's parent, its partner rows in the
        child in child-key order (``Table.order_key``): the order in which
        derivations and G4 summaries aggregate a parent's children."""
        if rel_name not in self._groups:
            partners = self.bound.partners[rel_name]  # in child row order
            rank = self._rank_by_key(self.bound.schema.relationship(rel_name).child_entity())
            # stable: by parent row, then child key
            order = np.lexsort((rank[partners.rows], partners.gid))
            self._groups[rel_name] = Groups(partners.rows[order], partners.sizes)
        return self._groups[rel_name]

    def _rank_by_key(self, entity: str) -> np.ndarray:
        """Each row's position in the entity's rows sorted by key, one sort
        per table for all of its relationships."""
        if entity not in self._key_rank:
            table = self.bound.bundle.table(entity)
            rank = np.empty(table.row_count, dtype=np.int64)
            rank[sorted(range(table.row_count), key=table.order_key())] = np.arange(table.row_count)
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
        expr = schema.entity(entity).attr(attr_name).derivation
        columns = {a: self._cells(entity, a) for a in sorted(ex.referenced_attrs(expr))}
        related: dict[tuple[str, Optional[str]], tuple[Optional[Vec], Groups]] = {}
        for agg in ex.referenced_aggregates(expr):
            rel = schema.relationship(agg.relationship)
            if rel is None or rel.parent_entity() != entity:
                raise ValueError(f"entity {entity} cannot aggregate over relationship "
                                 f"{agg.relationship!r}")
            child = None if agg.attribute is None else self._cells(rel.child_entity(), agg.attribute)
            related[agg.relationship, agg.attribute] = (child, self.groups(agg.relationship))
        return ex.eval_column(expr, schema.type_env(entity), self.bound.bundle.table(entity).row_count,
                              columns, related, self.clock)


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
        self.datasets: dict[str, Table] = {}
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
        or the one row that its own foreign key names, read off the binder's
        index the other way round."""
        rel = self.bound.schema.relationship(rel_name)
        if rel.child_entity() == child:
            return self.derivations.groups(rel_name)
        partners = self.bound.partners[rel_name]
        partner = np.full(self.frames[parent].row_count, -1)
        partner[partners.rows] = partners.gid
        return Groups(partner[partner >= 0], (partner >= 0).astype(np.int64))

    def derive_attr(self, entity: str, attr_name: str) -> None:
        """Attach the derived attribute's shared cells as a working column and
        mark the columns it reads consumed."""
        schema = self.bound.schema
        attr = schema.entity(entity).attr(attr_name)
        frame = self.frames[entity]
        values, diags = self.derivations.derived(entity, attr_name)
        for d in diags:
            self.warnings.warning("derived-value", f"{entity}.{attr_name}: {d}")
        refs = ex.referenced_attrs(attr.derivation)
        for a in refs:
            col = self.derived_columns.get((entity, a)) or frame.columns[frame.column_index(a)]
            col.consumed = True
        sources = {f"{entity}.{a}" for a in refs}
        for agg in ex.referenced_aggregates(attr.derivation):
            # count(REL) reads the child's rows, as the G4 count summary does
            child = schema.relationship(agg.relationship).child_entity()
            sources.add(f"{child}.{agg.attribute or '*'}")
        col = Column(
            name=attr_name, kind=attr.kind,
            origin_entities=[entity], source_attributes=sorted(sources),
            transform="derived",
            params={"expression": ex.pretty_print(attr.derivation)},
            guidelines=["G2"],
        )
        self.derived_columns[entity, attr_name] = col
        self._add(frame, col, values)

    def join_one_to_one(self, parent: str, child: str, rel_name: str) -> None:
        """Attach the (at most one) partner row's feature columns to the parent."""
        rel = self.bound.schema.relationship(rel_name)
        pframe = self.frames[parent]
        cframe = self.frames[child]
        partners = self._partners(parent, child, rel_name)
        min_partners = rel.end_of(child).min
        if rel.is_one_to_one and rel.child_entity() != child:
            min_partners = 0
        absent_null = _null_for(min_partners)
        # each parent row's first partner in child-key order; the absent row appended last
        partner = np.full(len(partners), cframe.row_count)
        has = partners.sizes > 0
        partner[has] = partners.rows[partners.offsets[:-1][has]]
        for ci, col in enumerate(cframe.columns):
            if not col.emit or col.consumed or col.kind == "identifier":
                continue
            new = col.clone(name=col.name if col.prefixed else feature_name(col.name, [child], "raw"),
                            prefixed=True)
            new.params["relationship"] = rel_name
            self._add(pframe, new, cframe.cells[ci].with_absent(absent_null).take(partner))

    def summarize_child(self, parent: str, child: str, rel_name: str,
                        agg_set: tuple[str, ...], top_k: int) -> None:
        """G4: one summary column per aggregate of each child column, every
        numeric, boolean and nominal summary one grouped reduction over the
        relationship's partner index (``Derivations.groups``)."""
        pframe = self.frames[parent]
        cframe = self.frames[child]
        groups = self.derivations.groups(rel_name)
        self._add_summary(pframe, Column(
            name=feature_name("", [child], "count"), kind="numeric",
            origin_entities=[child], source_attributes=[f"{child}.*"],
            transform="count", params={"relationship": rel_name},
            guidelines=["G4"], prefixed=True,
        ), groups.sizes.astype(float))

        numeric_aggs = [a for a in eer.AGG_SET_ALL if a != "count" and a in agg_set]
        for want_kind in KIND_SUMMARY_ORDER:
            for ci, col in enumerate(cframe.columns):
                if col.kind != want_kind or not col.emit or col.consumed or col.kind == "identifier":
                    continue
                # subtype-owned columns are not applicable to most child rows;
                # they surface only when their own entity's datasets are split
                if col.subtype is not None:
                    continue
                vec = cframe.cells[ci]

                def summary(transform: str, kind: str = "numeric", category: Optional[str] = None):
                    return self._agg_col(col, child, rel_name, transform, kind, category)

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

    def split_subtypes(self, gen_name: str) -> None:
        gen = self.bound.schema.generalization(gen_name)
        root = self.frames[self.plan.binding.target_entity]
        for st in gen.subtypes:
            name = f"{self.plan.task}_{st.name}"
            # sibling subtypes' columns are excluded entirely
            keep_cols = [i for i, c in enumerate(root.columns)
                         if c.subtype is None or c.subtype[0] != gen_name or c.subtype[1] == st.name]
            held = self.bound.subtype_rows[gen_name][st.name]
            members = np.flatnonzero(held >= 0)
            frame = Table(root.name, [root.columns[i].clone() for i in keep_cols],
                          key_columns=root.key_columns,
                          cells=[root.cells[i].take(members) for i in keep_cols])
            if st.from_table:
                self._join_membership_table(frame, gen, st, held[members])
            if not members.size:
                self.warnings.warning("empty-subtype",
                                      f"subtype {st.name} has zero members; dataset {name} is empty")
            self.datasets[name] = frame

    def _join_membership_table(self, frame: Table, gen: eer.Generalization, st: eer.Subtype,
                               picked: np.ndarray) -> None:
        """Attach the subtype's attributes from its membership table's rows
        ``picked``, one per member row of the frame."""
        mt = self.bound.bundle.table(st.name)
        for a in st.attributes:
            self._add(frame, Column(
                name=a.name, kind=a.kind,
                origin_entities=[st.name], source_attributes=[f"{st.name}.{a.name}"],
                guidelines=["G5"], subtype=(gen.name, st.name),
            ), mt.cells[mt.column_index(a.name)].take(picked))

    def _ensure_dataset(self, name: str) -> Table:
        if name not in self.datasets:
            # single-output plan: the root frame is the dataset
            self.datasets[name] = self.frames[self.plan.binding.target_entity]
        return self.datasets[name]

    def impute(self, name: str, strategy: str) -> None:
        frame = self._ensure_dataset(name)
        if strategy == "none":
            return
        target = self.plan.binding.target_attr
        const = strategy[len("constant:"):] if strategy.startswith("constant:") else None
        for ci, col in enumerate(frame.columns):
            if not col.emit or col.consumed or col.name == target or col.kind == "identifier":
                continue
            vec = frame.cells[ci]
            unknown = vec.null == 1
            count = int(np.count_nonzero(unknown))
            if not count:
                continue
            if const is not None:
                try:
                    fill = parse_cell(const, col.kind)
                    if fill is None:
                        raise ValueError("the value is empty")
                except ValueError as exc:
                    raise PlanError(f"dataset {name}: column {col.name!r}: "
                                    f"bad impute constant {const!r}: {exc}")
                kind = "imputed_const"
            else:
                if col.kind == "text":
                    self.warnings.warning(
                        "not-imputed",
                        f"dataset {name}: text column {col.name!r} is not imputed under "
                        f"mean_mode; {count} unknown cell(s) left null")
                    continue
                fill, kind = _mean_mode_fill(vec, col.kind)
                if fill is None:
                    self.warnings.warning(
                        "not-imputed",
                        f"dataset {name}: column {col.name!r} has no known values; left null")
                    continue
            if _non_finite(fill):
                self.warnings.warning(
                    "not-imputed",
                    f"dataset {name}: column {col.name!r} has a non-finite fill; left null")
                continue
            # a new Vec: the column may be shared, e.g. with the derivations
            values = vec.values.copy()
            values[unknown] = fill.toordinal() if isinstance(fill, _dt.date) else fill
            frame.cells[ci] = Vec(values, np.where(unknown, np.int8(0), vec.null))
            col.imputed_cells += count
            col.params = dict(col.params, imputation={"kind": kind, "fill": _jsonable(fill),
                                                      "base_transform": col.transform})
            col.transform = kind
            if "G3" not in col.guidelines:
                col.guidelines = sorted(set(col.guidelines) | {"G3"})

    def emit(self, name: str) -> TrainingDataset:
        """The dataset's table: keys, then predictors, the target last, each
        column cloned under its final name; rows with a null target dropped."""
        frame = self._ensure_dataset(name)
        target_attr = self.plan.binding.target_attr
        keys, predictors, target = [], [], None
        for ci, col in enumerate(frame.columns):
            if col.name in frame.key_columns:
                keys.append(ci)
            elif col.name == target_attr and not col.prefixed:
                target = ci
            elif col.emit and not col.consumed:
                predictors.append(ci)
        if target is None:
            raise ValueError(f"dataset {name}: target column {target_attr!r} missing")
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

        known = np.flatnonzero(frame.cells[target].null == 0)
        dropped = frame.row_count - len(known)
        kept = np.array(sorted(known.tolist(), key=frame.order_key()), dtype=np.int64)
        # null codes survive in memory (CSV renders both as empty)
        cells = [frame.cells[ci].take(kept) for ci in ordered]
        table = Table(name, columns, key_columns=[c.name for c in columns[:len(keys)]], cells=cells)
        ds = TrainingDataset(name=name, table=table, target_column=columns[-1].name,
                             dropped_null_target=dropped)
        self.emitted[name] = ds
        return ds


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


def _mean_mode_fill(vec: Vec, kind: str):
    """The fill of a column's unknown cells and its transform kind, from
    its known cells; (None, None) when it has none."""
    known = vec.values[vec.null == 0]
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
    distinct, codes = factorize(vec)
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
        k = step.kind
        if k == "derive_attr":
            st.derive_attr(step.params["entity"], step.params["attribute"])
        elif k == "summarize_child":
            st.summarize_child(step.params["parent"], step.params["child"],
                               step.params["relationship"],
                               tuple(step.params["aggregates"]), step.params["top_k"])
        elif k == "join_one_to_one":
            st.join_one_to_one(step.params["parent"], step.params["child"],
                               step.params["relationship"])
        elif k == "subtype_split":
            st.split_subtypes(step.params["generalization"])
        elif k == "impute_columns":
            st.impute(step.params["dataset"], step.params["strategy"])
        elif k == "emit_dataset":
            st.emit(step.params["dataset"])
        else:
            raise ValueError(f"unknown plan step kind {k!r}")

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
    leaked = set()
    for agg in ex.referenced_aggregates(attr.derivation):
        rel = bound.schema.relationship(agg.relationship)
        if rel is not None and agg.attribute:
            leaked.add(f"{rel.child_entity()}.{agg.attribute}")
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
    written: list[Path] = []
    try:
        for ds in datasets:
            path = out_dir / f"{ds.name}.csv"
            path.write_bytes(table_to_csv_bytes(ds.table))
            written.append(path)
            if options.holdout:
                _write_holdout(out_dir, ds, options.holdout, written)
        mpath = out_dir / "manifest.json"
        mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(mpath)
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def _write_holdout(out_dir: Path, ds: TrainingDataset, fraction: float,
                   written: list[Path]) -> None:
    """Deterministic, seed-independent holdout: split by key digest."""
    train, test = [], []
    threshold = int(fraction * 2**32)
    composite = len(ds.table.key_columns) > 1
    for i, key in enumerate(ds.table.row_keys()):
        text = "|".join(map(str, key)) if composite else str(key)
        h = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")
        (test if h < threshold else train).append(i)
    for suffix, picked in (("train", train), ("test", test)):
        t = Table(f"{ds.name}_{suffix}", ds.table.columns, key_columns=ds.table.key_columns,
                  cells=[column.take(np.array(picked, dtype=np.int64)) for column in ds.table.cells])
        path = out_dir / f"{ds.name}_{suffix}.csv"
        path.write_bytes(table_to_csv_bytes(t))
        written.append(path)


# ---------------------------------------------------------------------------
# Naive flat dataset (no summarization)


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys, smallest first."""
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(np.concatenate(([0], keys[order][1:] != keys[order][:-1])))
    return ranks


def _project_and_rank(frame: Table) -> tuple[list[Column], list[Vec], np.ndarray]:
    """The frame's output columns, their cells and each row's dense rank by
    the reprs of its output cells, left to right, a null of either code
    printed as None. The all-null row of an absent partner is appended last,
    unknown (1): the naive join does not know why a partner is absent.

    Columns are printed one at a time and ranking stops once every row is
    distinct: later columns cannot reorder distinct rows, so the ranks equal
    those over every cell. A unique key in front is the only column printed."""
    keep = [ci for ci, c in enumerate(frame.columns) if not c.consumed]
    columns = [frame.columns[ci].clone(name=frame.columns[ci].output_name(), prefixed=True)
               for ci in keep]
    cells = [frame.cells[ci].with_absent(1) for ci in keep]
    n = frame.row_count + 1
    ranks = np.zeros(n, dtype=np.int64)
    for column in cells:
        if ranks.max() == n - 1:
            break
        printed = reprs(column)
        rank_of = {text: k for k, text in enumerate(sorted(set(printed)))}
        ranks = _dense_rank(ranks * len(rank_of)
                            + np.fromiter(map(rank_of.__getitem__, printed), np.int64, n))
    return columns, cells, ranks


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

    The join stays factorized: the table's rows are a ``JoinRows`` view over
    each entity's projected cells and one block-row index per entity, so the
    cost is linear in entity cells plus output rows."""
    st = _Execution(bound, binding, derivations)
    for entity, attr in derivation_order(bound.schema, binding):
        st.derive_attr(entity, attr.name)
    frames = st.frames
    root = binding.target_entity
    root_frame = frames[root]
    target = root_frame.columns[root_frame.column_index(binding.target_attr)]
    target.consumed = False  # kept even when a derivation reads it, as emit keeps it

    columns: list[Column] = []
    blocks: list[list[Vec]] = []
    ranks: list[np.ndarray] = []
    entities = [root] + [edge.child for edge in binding.spanning_tree]
    for name in entities:
        entity_columns, entity_cells, entity_ranks = _project_and_rank(frames[name])
        columns += entity_columns
        blocks.append(entity_cells)
        ranks.append(entity_ranks)

    # One index array per entity in join order (the final sort fixes the
    # output order); an absent partner is the block's last, all-null row, and
    # an absent parent's row carries that absence on.
    position = {name: k for k, name in enumerate(entities)}
    index = [np.arange(root_frame.row_count, dtype=np.int64)]
    for edge in binding.spanning_tree:
        index = _expand(index, index[position[edge.parent]],
                        st._partners(edge.parent, edge.child, edge.relationship),
                        frames[edge.child].row_count)
    # Blocks have a fixed width per entity, so a stable sort by the ranks,
    # first entity first, orders the output rows by the reprs of all their
    # cells, left to right.
    order = np.lexsort([r[idx] for r, idx in zip(ranks[::-1], index[::-1])])
    rows = JoinRows(blocks, [idx[order] for idx in index])
    root_keys = [root_frame.columns[root_frame.column_index(k)].output_name()
                 for k in root_frame.key_columns]
    return TrainingDataset("ds0", Table("ds0", columns, rows, key_columns=root_keys),
                           target_column=target.output_name())
