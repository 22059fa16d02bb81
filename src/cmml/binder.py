"""Bind a DataBundle to an EerSchema: referential integrity, each
relationship's partner index, subtype membership resolution, and
classification of every null cell as unknown (imputable) vs not-applicable
(never imputed).

Subtype membership is one row vector per subtype over the supertype's rows:
the row holding a member's subtype attributes, -1 for a non-member. Null
classification and the engine's subtype split read it by row.

Binding classifies the null cells of a bound table by rewriting their codes
in each column's ``values.Vec``: ``read_csv`` reads an empty field as unknown
(code 1), and the binder sets not applicable (code 2) where the subtype or
the applicable_when predicate says so, so later stages read the class from
the code. Keys, foreign keys and nulls are checked and coded one column at a
time. A foreign-key column is mapped to parent rows in one pass and the
relationship's ``expr.Groups`` built from that; Python visits only rows
matching no parent.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import eer
from . import expr as ex
from .diagnostics import Report
from .tabular import Column, DataBundle, Table, read_csv
from .values import Vec, box


@dataclass
class RelationshipCardinality:
    relationship: str
    declared_min: int
    declared_max: str
    observed_min: int
    observed_max: int
    conformant: bool
    violations: list[str] = field(default_factory=list)


@dataclass
class BoundModel:
    schema: eer.EerSchema
    # null codes rewritten by bind to unknown (1) or not applicable (2)
    bundle: DataBundle
    report: Report
    # relationship -> each parent row's partner rows in the child, in child
    # row order; a parent key's rows all go to its first row
    partners: dict[str, ex.Groups] = field(default_factory=dict)
    # generalization -> subtype -> for each supertype row, the row holding the
    # member's subtype attributes (its own row for a predicate subtype, its
    # membership-table row for a from-table one), -1 for a non-member; rows
    # sharing a key share a membership
    subtype_rows: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok


def load_bundle(schema: eer.EerSchema, data_dir: str | Path) -> tuple[DataBundle, Report]:
    """Read `<NAME>.csv` per entity (and per from-table subtype) under data_dir."""
    rep = Report()
    bundle = DataBundle()
    # (table, its columns, its key, what its file is)
    wanted = [(ent.name, schema.effective_columns(ent.name), ent.key_names, "table file for entity")
              for ent in schema.entities]
    for gen in schema.generalizations:
        sup = schema.entity(gen.supertype)
        wanted += [(st.name, (*sup.key_attrs, *st.attributes), sup.key_names,
                    "membership table for subtype") for st in gen.subtypes if st.from_table]
    for name, attrs, key_names, what in wanted:
        path = Path(data_dir) / f"{name}.csv"
        if not path.exists():
            rep.error("missing-table", f"no {what} {name} (expected {path})")
            continue
        table, trep = read_csv(path, name, [Column(a.name, a.kind) for a in attrs],
                               key_columns=list(key_names))
        rep.diagnostics.extend(trep.diagnostics)
        if table is not None:
            bundle.add(table)
    return bundle, rep


def bind(schema: eer.EerSchema, bundle: DataBundle, clock: _dt.date | None = None) -> BoundModel:
    """Validate the data against the schema and tag every null cell.

    ``today()`` in membership and applicable_when predicates is ``clock``.
    Error diagnostics (missing tables, duplicate keys, dangling foreign keys,
    disjointness violations) block planning; warnings do not. A schema that
    fails ``eer.validate_schema`` is refused: its errors are the report and
    nothing is bound.
    """
    rep = Report()
    bound = BoundModel(schema=schema, bundle=bundle, report=rep)
    rep.diagnostics += eer.validate_schema(schema).errors
    if not rep.ok:
        return bound
    if _check_tables(schema, bundle, rep):
        clock = clock or _dt.date.today()
        _index_relationships(bound)
        _resolve_memberships(bound, clock)
        _classify_nulls(bound, clock)
    return bound


def _as_tuple(table: Table, key) -> tuple:
    """A key from ``table.row_keys()`` as the tuple diagnostics print."""
    return key if len(table.key_columns) > 1 else (key,)


def _first_rows(keys: list, null: Optional[np.ndarray] = None) -> dict:
    """Each distinct key's first row (filled from the last row back, so the
    first row is written last), leaving out the rows where ``null`` is set."""
    rows = np.arange(len(keys))[::-1] if null is None else np.flatnonzero(~null)[::-1]
    return dict(zip(map(keys.__getitem__, rows.tolist()), rows.tolist()))


def _predicate(schema: eer.EerSchema, entity: str, table: Table, predicate: ex.Expr,
               clock: _dt.date) -> Vec:
    """A subtype or applicability predicate's verdict on every row of the
    entity's table as read."""
    return ex.eval_column(predicate, schema.stored_env(entity), table.row_count,
                          dict(zip(table.column_names, table.cells)), {}, clock)[0]


def _check_tables(schema: eer.EerSchema, bundle: DataBundle, rep: Report) -> bool:
    """Check every entity table and from-table subtype's membership table
    for null and duplicate keys; False when a table is missing."""
    ok = True
    tables = [(ent.name, f"no table for entity {ent.name}") for ent in schema.entities]
    tables += [(st.name, f"no membership table for subtype {st.name}")
               for gen in schema.generalizations for st in gen.subtypes if st.from_table]
    for name, missing in tables:
        table = bundle.table(name)
        if table is None:
            rep.error("missing-table", missing)
            ok = False
            continue
        key_cells = [table.cells[table.column_index(k)] for k in table.key_columns]
        null = np.any([v.null != 0 for v in key_cells], axis=0).tolist()
        if not any(null) and len(set(table.row_keys())) == table.row_count:
            continue
        seen: dict[tuple, int] = {}
        for i, key in enumerate(zip(*map(box, key_cells))):
            if null[i]:
                rep.error("null-key", f"{name}: row {i + 1} has a null key cell", f"{name}:{i + 1}")
                continue
            if key in seen:
                rep.error("duplicate-key",
                          f"{name}: key {key} duplicated on rows {seen[key] + 1} and {i + 1}",
                          f"{name}:{i + 1}")
            else:
                seen[key] = i
    return ok


def _index_relationships(bound: BoundModel) -> None:
    schema, bundle, rep = bound.schema, bound.bundle, bound.report
    for rel in schema.relationships:
        if rel.is_many_to_many:
            rep.error("unrewritten-nm", f"relationship {rel.name} is many-to-many; rewrite the schema first")
            continue
        parent_name, child_name = rel.parent_entity(), rel.child_entity()
        parent, child = bundle.table(parent_name), bundle.table(child_name)
        if len(parent.key_columns) != 1:
            rep.error("composite-parent-key",
                      f"relationship {rel.name}: parent {parent_name} has a composite key; "
                      "a single foreign-key column cannot reference it")
            continue
        fk = rel.fk_columns[0]
        # a null key is a null-key error and no parent
        key = parent.cells[parent.column_index(parent.key_columns[0])]
        key_cells = box(key)
        first_row = _first_rows(key_cells, key.null != 0)
        fk_null = child.cells[child.column_index(fk)].null.tolist()
        fk_cells = box(child.cells[child.column_index(fk)])
        parent_row = np.fromiter(map(first_row.get, fk_cells, repeat(-1)), np.int64, len(fk_cells))
        parent_end = rel.end_of(parent_name) if not rel.is_one_to_one else rel.left
        for i in np.flatnonzero(parent_row < 0).tolist():
            v = fk_cells[i]
            if not fk_null[i]:
                rep.error("dangling-fk",
                          f"{child_name}: row {i + 1} column {fk!r} = {v!r} matches no {parent_name} key",
                          f"{child_name}:{i + 1}")
            elif parent_end.min >= 1:
                rep.warning("mandatory-participation",
                            f"{child_name}: row {i + 1} has no {parent_name} "
                            f"(null {fk}) under mandatory participation in {rel.name}",
                            f"{child_name}:{i + 1}")
        matched = np.flatnonzero(parent_row >= 0)
        owner = parent_row[matched]
        partners = ex.Groups(matched[np.argsort(owner, kind="stable")],
                             np.bincount(owner, minlength=len(key_cells)))
        child_end = rel.end_of(child_name) if not rel.is_one_to_one else rel.right
        if child_end.min >= 1:
            firsts = np.fromiter(first_row.values(), np.int64, len(first_row))
            lonely = np.flatnonzero(partners.sizes[firsts] == 0).tolist()
            keys = list(first_row) if lonely else []
            for i in sorted(lonely, key=lambda i: repr(keys[i])):
                rep.warning("mandatory-participation",
                            f"{parent_name} {keys[i]!r} has zero {child_name} partners "
                            f"under mandatory participation in {rel.name}",
                            f"{parent_name}:{firsts[i] + 1}")
        if child_end.max == "1":
            crowded = np.flatnonzero(partners.sizes > 1)
            # in the order of each parent's first child, printing that child's key
            first_child = partners.rows[partners.offsets[crowded]]
            for c, p in sorted(zip(first_child.tolist(), crowded.tolist())):
                rep.warning("cardinality",
                            f"{parent_name} {fk_cells[c]!r} has {partners.sizes[p]} {child_name} "
                            f"partners in {rel.name} (declared max 1)")
        bound.partners[rel.name] = partners


def _resolve_memberships(bound: BoundModel, clock: _dt.date) -> None:
    schema, bundle, rep = bound.schema, bound.bundle, bound.report
    groups: dict[str, tuple[list, dict, np.ndarray]] = {}  # one per supertype table
    for gen in schema.generalizations:
        sup = bundle.table(gen.supertype)
        n = sup.row_count
        if gen.supertype not in groups:
            keys = sup.row_keys()
            first_row = _first_rows(keys)
            # each row's key's first row: rows sharing a key share a membership
            groups[gen.supertype] = keys, first_row, np.fromiter(map(first_row.__getitem__, keys),
                                                                 np.int64, n)
        keys, first_row, group = groups[gen.supertype]
        vectors: dict[str, np.ndarray] = {}
        for st in gen.subtypes:
            if st.from_table:
                mt = bundle.table(st.name)
                member_keys = mt.row_keys()
                found = np.fromiter(map(first_row.get, member_keys, repeat(-1)), np.int64, mt.row_count)
                # a null-key error, and no member
                null = np.any([mt.cells[mt.column_index(k)].null != 0 for k in mt.key_columns], axis=0)
                for i in np.flatnonzero((found < 0) & ~null).tolist():
                    rep.error("dangling-member", f"{st.name}: row {i + 1} key {_as_tuple(mt, member_keys[i])} "
                              f"matches no {gen.supertype} instance", f"{st.name}:{i + 1}")
                matched = np.flatnonzero((found >= 0) & ~null)
                # a key on several member rows (a duplicate-key error) is held by the first
                held_keys, first = np.unique(found[matched], return_index=True)
                held = np.full(n, -1)  # by each key's first row
                held[held_keys] = matched[first]
                vectors[st.name] = held[group]
            else:
                verdicts = _predicate(schema, gen.supertype, sup, st.membership, clock)
                for i in np.flatnonzero(verdicts.null).tolist():
                    rep.warning("membership-null",
                                f"{gen.supertype}: row {i + 1} membership predicate for {st.name} "
                                "is null; treated as non-member", f"{gen.supertype}:{i + 1}")
                member = np.zeros(n, dtype=bool)  # by each key's first row
                member[group[verdicts.values & (verdicts.null == 0)]] = True
                vectors[st.name] = np.where(member[group], np.arange(n), -1)
        firsts = np.flatnonzero(group == np.arange(n))  # one row per key, in row order
        belongs = sum((v[firsts] >= 0).astype(np.int64) for v in vectors.values())
        if gen.mode == "disjoint":
            for r in firsts[belongs > 1].tolist():
                names = sorted(name for name, v in vectors.items() if v[r] >= 0)
                rep.error("disjointness",
                          f"{gen.supertype} {_as_tuple(sup, keys[r])!r} belongs to {names} "
                          f"under disjoint generalization {gen.name}")
        uncovered = int(np.count_nonzero(belongs == 0))
        if uncovered:
            rep.notice("uncovered-instances",
                       f"generalization {gen.name}: {uncovered} {gen.supertype} instance(s) "
                       "belong to no subtype and will appear in no split dataset")
        bound.subtype_rows[gen.name] = vectors


def _classify_nulls(bound: BoundModel, clock: _dt.date) -> None:
    """Rewrite every null code to exactly one tag, in spec priority order,
    one column at a time: not applicable (2) outside the column's subtype or
    where its applicable_when is false, else unknown (1).

    Every column's codes are computed from the table as read before any
    column is replaced, so applicable_when predicates see the cells as read.
    Their warnings are reported in row-major order.
    """
    schema, rep = bound.schema, bound.report
    for ent in schema.entities:
        table = bound.bundle.table(ent.name)
        attrs = {a.name: a for a in schema.effective_columns(ent.name)}
        codes: dict[int, np.ndarray] = {}
        warnings: list[tuple[int, int, str]] = []
        for j, (colname, vec) in enumerate(zip(table.column_names, table.cells)):
            null = vec.null != 0
            if not null.any():
                continue
            gen, st = schema.subtype_owner(ent.name, colname)
            attr = attrs.get(colname)
            outside = (bound.subtype_rows[gen.name][st.name] < 0 if gen is not None
                       else np.zeros(len(vec), dtype=bool))
            if attr is not None and attr.applicable_when is not None:
                verdicts = _predicate(schema, ent.name, table, attr.applicable_when, clock)
                for i in np.flatnonzero(null & ~outside & (verdicts.null != 0)).tolist():
                    warnings.append((i, j, f"{ent.name}: row {i + 1}: applicable_when of "
                                           f"{colname!r} is null; cell classified unknown"))
                outside = outside | ((verdicts.null == 0) & ~verdicts.values)
            codes[j] = np.where(null, np.where(outside, 2, 1), 0).astype(np.int8)
        for i, _, message in sorted(warnings):
            rep.warning("applicability-null", message, f"{ent.name}:{i + 1}")
        for j, code in codes.items():
            table.cells[j] = Vec(table.cells[j].values, code)
    # members listed in a subtype's own table: every missing cell is unknown
    for st in (st for gen in schema.generalizations for st in gen.subtypes if st.from_table):
        cells = bound.bundle.table(st.name).cells
        cells[:] = [Vec(v.values, np.minimum(v.null, 1)) for v in cells]


def cardinality_report(bound: BoundModel) -> list[RelationshipCardinality]:
    """Observed child fan-out per distinct parent key for every relationship,
    with a conformance verdict against the declared cardinalities."""
    out: list[RelationshipCardinality] = []
    for rel in bound.schema.relationships:
        if rel.name not in bound.partners:
            continue
        parent_name, child_name = rel.parent_entity(), rel.child_entity()
        parent = bound.bundle.table(parent_name)
        key = parent.cells[parent.column_index(parent.key_columns[0])]
        key_cells = box(key)
        # each distinct non-null key's first row, in row order: the row its partners went to
        first_row = _first_rows(key_cells, key.null != 0)
        rows = np.sort(np.fromiter(first_row.values(), np.int64, len(first_row)))
        fanouts = bound.partners[rel.name].sizes[rows]
        child_end = rel.end_of(child_name) if not rel.is_one_to_one else rel.right
        few = fanouts < child_end.min
        many = (fanouts > 1) & (child_end.max == "1")
        violations: list[str] = []
        for i in sorted(np.flatnonzero(few | many).tolist(), key=lambda i: repr(key_cells[rows[i]])):
            stem = f"{parent_name} {key_cells[rows[i]]!r} has {fanouts[i]} {child_name} partners"
            if few[i]:
                violations.append(f"{stem} (declared min {child_end.min})")
            if many[i]:
                violations.append(f"{stem} (declared max 1)")
        observed = fanouts.tolist() or [0]
        out.append(RelationshipCardinality(
            rel.name, declared_min=child_end.min, declared_max=child_end.max,
            observed_min=min(observed), observed_max=max(observed),
            conformant=not violations, violations=violations))
    return out
