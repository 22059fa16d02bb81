"""Execute a TransformationPlan against a bound model.

Produces one flat training dataset per plan output (one row per
target-bearing instance, or per (instance, subtype) member for splits), a
naive fully-denormalized dataset for comparison, and a lineage manifest
recording every output column's origin entities, source attributes and
transform.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import dsl, eer
from . import expr as ex
from .binder import BoundModel
from .planner import PlanOptions, TransformationPlan
from .tabular import Table, table_to_csv_bytes
from .values import NOT_APPLICABLE, UNKNOWN, Null, is_null

KIND_SUMMARY_ORDER = ("numeric", "nominal", "boolean", "text", "date")
NUMERIC_AGG_ORDER = ("mean", "sum", "min", "max")

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
# Working frames


@dataclass
class Column:
    name: str                       # working name; final iff prefixed
    kind: str
    origin_entities: list[str]
    source_attributes: list[str]
    transform: str                  # raw | derived | count | ... (see feature_name)
    params: dict = field(default_factory=dict)
    guidelines: list[str] = field(default_factory=list)
    prefixed: bool = False
    emit: bool = True
    consumed: bool = False          # feeds a same-entity derived attribute; dropped at emit
    subtype: Optional[tuple[str, str]] = None  # (generalization, subtype) owning the column
    imputed_cells: int = 0

    def clone(self) -> "Column":
        return replace(self, origin_entities=list(self.origin_entities),
                       source_attributes=list(self.source_attributes),
                       params=dict(self.params), guidelines=list(self.guidelines))


@dataclass
class Frame:
    entity: str
    columns: list[Column]
    rows: list[list]
    key_names: list[str]

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)

    def key_tuple(self, row: list) -> tuple:
        idx = [self.col_index(k) for k in self.key_names]
        return tuple(row[i] for i in idx)

    def unique_name(self, name: str, warnings: list[str]) -> str:
        taken = {c.name for c in self.columns}
        if name not in taken:
            return name
        n = 2
        while f"{name}_{n}" in taken:
            n += 1
        warnings.append(f"feature name collision: {name!r} renamed to {name}_{n}")
        return f"{name}_{n}"

    def add_column(self, col: Column, values: list, warnings: list[str]) -> None:
        col.name = self.unique_name(col.name, warnings)
        self.columns.append(col)
        for row, v in zip(self.rows, values):
            row.append(v)

    def copy(self) -> "Frame":
        return Frame(self.entity, [c.clone() for c in self.columns],
                     [list(r) for r in self.rows], list(self.key_names))


@dataclass
class TrainingDataset:
    name: str
    table: Table
    target_column: str
    key_columns: list[str]
    dropped_null_target: int = 0


@dataclass
class FlatDataset:
    table: Table
    key_columns: list[str]
    target_column: str


def _null_for(min_participation: int) -> Null:
    return NOT_APPLICABLE if min_participation == 0 else UNKNOWN


def build_frames(bound: BoundModel, entities: list[str]) -> dict[str, Frame]:
    """Working frames from the bound bundle, columns in effective-column order.
    Null cells arrive already tagged by the binder."""
    frames: dict[str, Frame] = {}
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
                transform="raw",
                guidelines=["G5"] if st else [],
                emit=a.kind != "identifier",
                subtype=(gen.name, st.name) if st else None,
            ))
        idx = [table.column_index(c.name) for c in cols]
        rows = [[src[i] for i in idx] for src in table.rows]
        frames[name] = Frame(name, cols, rows, list(ent.key_names))
    return frames


# ---------------------------------------------------------------------------
# Step implementations


class _Execution:
    def __init__(self, bound: BoundModel, binding: eer.TargetBinding, clock: _dt.date,
                 plan: Optional[TransformationPlan] = None):
        self.plan = plan  # None when only derivations run (flatten_naive)
        self.bound = bound
        self.clock = clock
        self.warnings: list[str] = []
        self.frames = build_frames(bound, list(binding.predictor_entities))
        self.datasets: dict[str, Frame] = {}
        self.emitted: dict[str, TrainingDataset] = {}
        self.dataset_records: dict[str, list[dict]] = {}

    # -- related-rows provider -------------------------------------------------

    def _related(self, entity: str, row: list):
        frame = self.frames[entity]

        def provider(rel_name: str):
            rel = self.bound.schema.relationship(rel_name)
            if rel is None or rel.parent_entity() != entity:
                raise ValueError(f"entity {entity} cannot aggregate over relationship {rel_name!r}")
            pk = frame.key_tuple(row)[0] if len(frame.key_names) == 1 else frame.key_tuple(row)
            child = self.frames[rel.child_entity()]
            idxs = self.bound.children_of.get(rel_name, {}).get(pk, [])
            names = [c.name for c in child.columns]
            return [dict(zip(names, child.rows[i])) for i in idxs]

        return provider

    def derive_attr(self, entity: str, attr_name: str) -> None:
        schema = self.bound.schema
        ent = schema.entity(entity)
        attr = ent.attr(attr_name)
        frame = self.frames[entity]
        names = [c.name for c in frame.columns]
        diags: list[str] = []
        values = []
        for row in frame.rows:
            ctx = dict(zip(names, row))
            values.append(ex.eval_expr(attr.derivation, ctx, self._related(entity, row),
                                       self.clock, diags))
        for d in sorted(set(diags)):
            self.warnings.append(f"{entity}.{attr_name}: {d}")
        sources = [f"{entity}.{a}" for a in sorted(ex.referenced_attrs(attr.derivation))]
        for agg in ex.referenced_aggregates(attr.derivation):
            rel = schema.relationship(agg.relationship)
            if rel is not None and agg.attribute:
                sources.append(f"{rel.child_entity()}.{agg.attribute}")
        for a in ex.referenced_attrs(attr.derivation):
            try:
                frame.columns[frame.col_index(a)].consumed = True
            except KeyError:
                pass
        frame.add_column(Column(
            name=attr_name, kind=attr.kind,
            origin_entities=[entity], source_attributes=sorted(set(sources)),
            transform="derived",
            params={"expression": ex.pretty_print(attr.derivation)},
            guidelines=["G2"],
        ), values, self.warnings)

    def join_one_to_one(self, parent: str, child: str, rel_name: str) -> None:
        """Attach the (at most one) partner row's feature columns to the parent."""
        rel = self.bound.schema.relationship(rel_name)
        pframe = self.frames[parent]
        cframe = self.frames[child]
        if rel.child_entity() == child:
            # partner carries the fk; look partners up by parent key
            children = self.bound.children_of.get(rel_name, {})
            pkeys = [pframe.key_tuple(r)[0] for r in pframe.rows]
            partner_idx = []
            for pk in pkeys:
                idxs = children.get(pk, [])
                partner_idx.append(idxs[0] if idxs else None)
            absent_null = _null_for(rel.end_of(child).min)
        else:
            # parent carries the fk (many-to-one hop toward the one side)
            fk_i = pframe.col_index(rel.fk_columns[0])
            ckey = {cframe.key_tuple(r)[0]: i for i, r in enumerate(cframe.rows)}
            partner_idx = []
            for row in pframe.rows:
                v = row[fk_i]
                partner_idx.append(ckey.get(v) if not is_null(v) else None)
            absent_null = _null_for(rel.end_of(child).min if not rel.is_one_to_one else 0)
        for ci, col in enumerate(cframe.columns):
            if not col.emit or col.consumed or col.kind == "identifier":
                continue
            new = col.clone()
            if not new.prefixed:
                new.name = feature_name(new.name, [child], "raw")
                new.prefixed = True
            new.params = dict(new.params, relationship=rel_name)
            values = [cframe.rows[pi][ci] if pi is not None else absent_null for pi in partner_idx]
            pframe.add_column(new, values, self.warnings)

    def summarize_child(self, parent: str, child: str, rel_name: str,
                        agg_set: tuple[str, ...], top_k: int) -> None:
        pframe = self.frames[parent]
        cframe = self.frames[child]
        children = self.bound.children_of.get(rel_name, {})
        pkeys = [pframe.key_tuple(r)[0] for r in pframe.rows]
        # child rows per parent, in child key order (stable concat/versioning)
        groups: dict[object, list[int]] = {}
        for pk in pkeys:
            idxs = list(children.get(pk, []))
            idxs.sort(key=lambda i: tuple(repr(v) for v in cframe.key_tuple(cframe.rows[i])))
            groups[pk] = idxs

        def add(col: Column, values: list) -> None:
            pframe.add_column(col, values, self.warnings)

        add(Column(
            name=feature_name("", [child], "count"), kind="numeric",
            origin_entities=[child], source_attributes=[f"{child}.*"],
            transform="count", params={"relationship": rel_name},
            guidelines=["G4"], prefixed=True,
        ), [float(len(groups[pk])) for pk in pkeys])

        numeric_aggs = tuple(a for a in NUMERIC_AGG_ORDER if a in agg_set)
        for want_kind in KIND_SUMMARY_ORDER:
            for ci, col in enumerate(cframe.columns):
                if col.kind != want_kind or not col.emit or col.consumed or col.kind == "identifier":
                    continue
                # subtype-owned columns are not applicable to most child rows;
                # they surface only when their own entity's datasets are split
                if col.subtype is not None:
                    continue
                if want_kind == "numeric":
                    self._summarize_numeric(col, ci, cframe, groups, pkeys, numeric_aggs,
                                            child, rel_name, add)
                elif want_kind == "nominal":
                    self._summarize_nominal(col, ci, cframe, groups, pkeys, top_k,
                                            child, rel_name, add)
                elif want_kind == "boolean":
                    values = [float(sum(1 for i in groups[pk]
                                        if cframe.rows[i][ci] is True)) for pk in pkeys]
                    add(self._agg_col(col, child, rel_name, "true_count", "numeric"), values)
                elif want_kind == "text":
                    values = []
                    for pk in pkeys:
                        parts = [cframe.rows[i][ci] for i in groups[pk]
                                 if not is_null(cframe.rows[i][ci])]
                        values.append("\n".join(parts) if parts else UNKNOWN)
                    add(self._agg_col(col, child, rel_name, "concat", "text"), values)
                elif want_kind == "date":
                    for agg in ("min", "max"):
                        values = []
                        for pk in pkeys:
                            vals = [cframe.rows[i][ci] for i in groups[pk]
                                    if not is_null(cframe.rows[i][ci])]
                            values.append((min(vals) if agg == "min" else max(vals))
                                          if vals else UNKNOWN)
                        add(self._agg_col(col, child, rel_name, agg, "date"), values)

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

    def _summarize_numeric(self, col, ci, cframe, groups, pkeys, numeric_aggs,
                           child, rel_name, add) -> None:
        per_parent = {pk: [cframe.rows[i][ci] for i in groups[pk]
                           if not is_null(cframe.rows[i][ci])] for pk in pkeys}
        for agg in numeric_aggs:
            values = []
            for pk in pkeys:
                vals = per_parent[pk]
                if agg == "sum":
                    values.append(float(sum(vals)))
                elif not vals:
                    values.append(UNKNOWN)
                elif agg == "mean":
                    values.append(float(sum(vals)) / len(vals))
                elif agg == "min":
                    values.append(min(vals))
                else:
                    values.append(max(vals))
            add(self._agg_col(col, child, rel_name, agg, "numeric"), values)

    def _summarize_nominal(self, col, ci, cframe, groups, pkeys, top_k,
                           child, rel_name, add) -> None:
        freq: dict[str, int] = {}
        for row in cframe.rows:
            v = row[ci]
            if not is_null(v):
                freq[v] = freq.get(v, 0) + 1
        ordered = sorted(freq, key=lambda c: (-freq[c], c))
        kept = ordered[:top_k]
        pooled = set(ordered[top_k:])
        counts = {pk: {} for pk in pkeys}
        other = {pk: 0 for pk in pkeys}
        for pk in pkeys:
            for i in groups[pk]:
                v = cframe.rows[i][ci]
                if is_null(v):
                    continue
                if v in pooled:
                    other[pk] += 1
                else:
                    counts[pk][v] = counts[pk].get(v, 0) + 1
        for cat in kept:
            add(self._agg_col(col, child, rel_name, "category_count", "numeric", category=cat),
                [float(counts[pk].get(cat, 0)) for pk in pkeys])
        if pooled:
            add(self._agg_col(col, child, rel_name, "category_count", "numeric", category="OTHER"),
                [float(other[pk]) for pk in pkeys])

    # -- splitting / imputation / emission --------------------------------------

    def split_subtypes(self, gen_name: str) -> None:
        schema = self.bound.schema
        gen = schema.generalization(gen_name)
        root = self.frames[self.plan.binding.target_entity]
        membership = self.bound.subtype_membership.get(gen_name, {})
        for st in gen.subtypes:
            name = f"{self.plan.task}_{st.name}"
            frame = root.copy()
            keep_rows = [r for r in frame.rows if st.name in membership.get(frame.key_tuple(r), set())]
            frame.rows = keep_rows
            # sibling subtypes' columns are excluded entirely
            keep_cols = [i for i, c in enumerate(frame.columns)
                         if c.subtype is None or c.subtype[0] != gen_name or c.subtype[1] == st.name]
            frame.columns = [frame.columns[i] for i in keep_cols]
            frame.rows = [[r[i] for i in keep_cols] for r in frame.rows]
            if st.from_table:
                self._join_membership_table(frame, gen, st)
            if not frame.rows:
                self.warnings.append(f"subtype {st.name} has zero members; dataset {name} is empty")
            self.datasets[name] = frame

    def _join_membership_table(self, frame: Frame, gen: eer.Generalization, st: eer.Subtype) -> None:
        mt = self.bound.bundle.table(st.name)
        by_key = {mt.key_tuple(r): r for r in mt.rows}
        for a in st.attributes:
            src = mt.column_index(a.name)
            values = []
            for row in frame.rows:
                mrow = by_key.get(frame.key_tuple(row))
                values.append(NOT_APPLICABLE if mrow is None else mrow[src])
            frame.add_column(Column(
                name=a.name, kind=a.kind,
                origin_entities=[st.name], source_attributes=[f"{st.name}.{a.name}"],
                transform="raw", guidelines=["G5"],
                subtype=(gen.name, st.name),
            ), values, self.warnings)

    def _ensure_dataset(self, name: str) -> Frame:
        if name not in self.datasets:
            # single-output plan: the root frame is the dataset
            self.datasets[name] = self.frames[self.plan.binding.target_entity]
        return self.datasets[name]

    def impute(self, name: str, strategy: str) -> None:
        frame = self._ensure_dataset(name)
        if strategy == "none":
            return
        target = self.plan.binding.target_attr
        const = strategy.split(":", 1)[1] if strategy.startswith("constant") else None
        for ci, col in enumerate(frame.columns):
            if not col.emit or col.consumed or col.name == target or col.kind == "identifier":
                continue
            cells = [row[ci] for row in frame.rows]
            unknown_idx = [i for i, v in enumerate(cells) if v == UNKNOWN]
            if not unknown_idx:
                continue
            present = [v for v in cells if not is_null(v)]
            if const is not None:
                fill = _parse_constant(const, col.kind)
                kind = "imputed_const"
            else:
                fill, kind = _mean_mode_fill(present, col.kind)
                if fill is None:
                    self.warnings.append(
                        f"dataset {name}: column {col.name!r} has no known values; left null")
                    continue
            for i in unknown_idx:
                frame.rows[i][ci] = fill
            col.imputed_cells += len(unknown_idx)
            col.params = dict(col.params, imputation={"kind": kind, "fill": _jsonable(fill),
                                                      "base_transform": col.transform})
            col.transform = kind
            if "G3" not in col.guidelines:
                col.guidelines = sorted(set(col.guidelines) | {"G3"})

    def emit(self, name: str) -> TrainingDataset:
        frame = self._ensure_dataset(name)
        root_entity = self.plan.binding.target_entity
        target_attr = self.plan.binding.target_attr
        key_names = frame.key_names
        key_cols, pred_cols, target_col = [], [], None
        for ci, col in enumerate(frame.columns):
            if col.name in key_names:
                key_cols.append((col, ci, "key"))
            elif col.name == target_attr and not col.prefixed:
                target_col = (col, ci, "target")
            elif col.emit and not col.consumed:
                pred_cols.append((col, ci, "predictor"))
        if target_col is None:
            raise ValueError(f"dataset {name}: target column {target_attr!r} missing")
        ordered = key_cols + pred_cols + [target_col]

        final_cols: list[tuple[str, str]] = []
        records = []
        names_taken: set[str] = set()
        for col, ci, role in ordered:
            if col.prefixed:
                final = col.name
            else:
                origin = col.subtype[1] if col.subtype else root_entity
                final = feature_name(col.name, [origin], "raw" if col.transform.startswith("imputed")
                                     or col.transform == "raw" else col.transform)
            base = final
            n = 2
            while final in names_taken:
                final = f"{base}_{n}"
                n += 1
                self.warnings.append(f"feature name collision at emit: {base!r} renamed to {final!r}")
            names_taken.add(final)
            final_cols.append((final, col.kind))
            records.append({
                "name": final,
                "role": role,
                "origin_entities": list(col.origin_entities),
                "source_attributes": list(col.source_attributes),
                "transform": {"kind": col.transform, "params": _jsonable(col.params)},
                "guidelines": sorted(set(col.guidelines) | {"G1"}),
                "imputed_cells": col.imputed_cells,
            })

        target_ci = target_col[1]
        kept, dropped = [], 0
        for row in frame.rows:
            if is_null(row[target_ci]):
                dropped += 1
            else:
                kept.append(row)
        kept.sort(key=lambda r: tuple(repr(v) for v in frame.key_tuple(r)))
        # tagged nulls survive in memory (CSV renders both tags as empty)
        out_rows = [[row[ci] for _, ci, _ in ordered] for row in kept]
        table = Table(name, final_cols, out_rows,
                      key_columns=[final_cols[i][0] for i in range(len(key_cols))])
        ds = TrainingDataset(
            name=name, table=table,
            target_column=final_cols[-1][0],
            key_columns=list(table.key_columns),
            dropped_null_target=dropped,
        )
        self.emitted[name] = ds
        self.dataset_records[name] = records
        return ds


def _parse_constant(text: str, kind: str):
    if kind == "numeric":
        return float(text)
    if kind == "boolean":
        return text == "true"
    if kind == "date":
        return _dt.date.fromisoformat(text)
    return text


def _mean_mode_fill(present: list, kind: str):
    if not present:
        return None, None
    if kind == "numeric":
        return float(sum(present)) / len(present), "imputed_mean"
    if kind in ("nominal", "boolean"):
        freq: dict = {}
        for v in present:
            freq[v] = freq.get(v, 0) + 1
        best = sorted(freq, key=lambda v: (-freq[v], str(v)))[0]
        return best, "imputed_mode"
    if kind == "date":
        ordered = sorted(present)
        return ordered[(len(ordered) - 1) // 2], "imputed_mean"  # lower median
    return None, None


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


def execute(plan: TransformationPlan, bound: BoundModel, options: PlanOptions,
            out_dir: Optional[str | Path] = None,
            clock: Optional[_dt.date] = None) -> tuple[list[TrainingDataset], dict]:
    """Run the plan's steps in order. Identical inputs produce byte-identical
    CSV and manifest outputs; rows with a null target are dropped and counted.
    """
    if not bound.ok:
        raise ValueError("bound model has error diagnostics; fix the data before executing")
    clock = clock or _dt.date.today()
    st = _Execution(bound, plan.binding, clock, plan)
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
    datasets = [st.emitted[name] for name in plan.outputs]
    manifest = _build_manifest(plan, bound, options, st, datasets)
    if out_dir is not None:
        _write_outputs(Path(out_dir), datasets, manifest, options)
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
    for records in st.dataset_records.values():
        for rec in records:
            if rec["role"] == "predictor" and leaked & set(rec["source_attributes"]):
                st.warnings.append(
                    f"target {plan.binding.target_entity}.{plan.binding.target_attr} is derived from "
                    f"{sorted(leaked & set(rec['source_attributes']))} which also feeds predictor "
                    f"{rec['name']!r}; possible target leakage")
                return


def _build_manifest(plan, bound, options, st: _Execution, datasets) -> dict:
    from . import __version__

    table_hashes = {
        name: hashlib.sha256(table_to_csv_bytes(t)).hexdigest()
        for name, t in sorted(bound.bundle.tables.items())
    }
    schema_text = dsl.print_schema(bound.schema).text
    records = st.dataset_records
    return {
        "tool_version": __version__,
        "seed": options.seed,
        "schema_sha256": hashlib.sha256(schema_text.encode("utf-8")).hexdigest(),
        "table_sha256": table_hashes,
        "task": plan.task,
        "target": f"{plan.binding.target_entity}.{plan.binding.target_attr}",
        "naming_policy": "G1",
        "steps": [s.to_dict() for s in plan.steps],
        "datasets": {
            ds.name: {
                "rows": len(ds.table.rows),
                "dropped_null_target_rows": ds.dropped_null_target,
                "features": records.get(ds.name, []),
            }
            for ds in datasets
        },
        "warnings": sorted(set(st.warnings)),
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
    for row in ds.table.rows:
        key = "|".join(str(v) for v in ds.table.key_tuple(row))
        h = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:4], "big")
        (test if h < threshold else train).append(row)
    for suffix, rows in (("train", train), ("test", test)):
        t = Table(f"{ds.name}_{suffix}", ds.table.columns, rows, key_columns=ds.table.key_columns)
        path = out_dir / f"{ds.name}_{suffix}.csv"
        path.write_bytes(table_to_csv_bytes(t))
        written.append(path)


# ---------------------------------------------------------------------------
# Naive flat dataset (no summarization)


def flatten_naive(bound: BoundModel, binding: eer.TargetBinding,
                  clock: Optional[_dt.date] = None) -> FlatDataset:
    """Left-join chain along the spanning tree at the deepest grain, with
    derived attributes evaluated and G1 naming applied; the target repeats
    per row exactly as a naive export would."""
    clock = clock or _dt.date.today()
    schema = bound.schema
    derivations = _Execution(bound, binding, clock)
    frames = derivations.frames
    for name in binding.predictor_entities:
        ent = schema.entity(name)
        for has_agg in (False, True):
            for a in ent.attributes:
                if a.derivation is None:
                    continue
                if bool(ex.referenced_aggregates(a.derivation)) is has_agg:
                    derivations.derive_attr(name, a.name)

    def cols_of(entity: str) -> list[tuple[str, int, Column]]:
        frame = frames[entity]
        out = []
        for ci, c in enumerate(frame.columns):
            if c.consumed:
                continue
            final = c.name if c.prefixed else feature_name(c.name, [c.origin_entities[0]], "raw")
            out.append((final, ci, c))
        return out

    root = binding.target_entity
    acc_cols: list[tuple[str, str]] = []
    col_map: list[tuple[str, int]] = []  # (entity, column index in its frame)
    for final, ci, c in cols_of(root):
        acc_cols.append((final, c.kind))
        col_map.append((root, ci))
    acc_rows: list[dict[str, list]] = [{root: row} for row in frames[root].rows]

    for edge in binding.spanning_tree:
        rel = schema.relationship(edge.relationship)
        child = edge.child
        cframe = frames[child]
        new_rows = []
        if rel.child_entity() == child:
            children = bound.children_of.get(edge.relationship, {})
            pframe = frames[edge.parent]
            for bundle_row in acc_rows:
                prow = bundle_row[edge.parent]
                if prow is None:
                    new_rows.append({**bundle_row, child: None})
                    continue
                pk = pframe.key_tuple(prow)[0]
                idxs = children.get(pk, [])
                idxs = sorted(idxs, key=lambda i: tuple(repr(v) for v in cframe.key_tuple(cframe.rows[i])))
                if not idxs:
                    new_rows.append({**bundle_row, child: None})
                else:
                    for i in idxs:
                        new_rows.append({**bundle_row, child: cframe.rows[i]})
        else:
            pframe = frames[edge.parent]
            fk_i = pframe.col_index(rel.fk_columns[0])
            ckey = {cframe.key_tuple(r)[0]: r for r in cframe.rows}
            for bundle_row in acc_rows:
                prow = bundle_row[edge.parent]
                if prow is None:
                    new_rows.append({**bundle_row, child: None})
                    continue
                v = prow[fk_i]
                new_rows.append({**bundle_row, child: ckey.get(v) if not is_null(v) else None})
        acc_rows = new_rows
        for final, ci, c in cols_of(child):
            acc_cols.append((final, c.kind))
            col_map.append((child, ci))

    out_rows = []
    for bundle_row in acc_rows:
        row = []
        for entity, ci in col_map:
            src = bundle_row.get(entity)
            if src is None:
                row.append(None)
            else:
                v = src[ci]
                row.append(None if is_null(v) else v)
        out_rows.append(row)
    root_keys = [feature_name(k, [root], "raw") for k in frames[root].key_names]
    out_rows.sort(key=lambda r: tuple(repr(v) for v in r))
    table = Table("ds0", acc_cols, out_rows, key_columns=root_keys)
    return FlatDataset(
        table=table,
        key_columns=root_keys,
        target_column=feature_name(binding.target_attr, [root], "raw"),
    )
