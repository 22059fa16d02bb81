"""Bind a DataBundle to an EerSchema: referential integrity, subtype
membership resolution, and classification of every null cell as unknown
(imputable) vs not-applicable (never imputed).

Binding tags the null cells of a bound table: every ``None`` that
``read_csv`` left becomes the ``values.UNKNOWN`` or ``values.NOT_APPLICABLE``
singleton, so later stages read the class from the cell itself. Keys, foreign
keys and nulls are checked and tagged one column at a time; a column with a
null cell is replaced by its tagged copy.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from . import eer
from . import expr as ex
from .diagnostics import Report
from .tabular import Column, DataBundle, read_csv
from .values import NOT_APPLICABLE, UNKNOWN, Null, is_null


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
    # tagged by bind: once the table checks pass, no cell is None
    bundle: DataBundle
    report: Report
    # relationship -> parent key value -> child row indexes
    children_of: dict[str, dict[object, list[int]]] = field(default_factory=dict)
    # generalization -> supertype key tuple -> set of member subtype names
    subtype_membership: dict[str, dict[tuple, set[str]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok


def load_bundle(schema: eer.EerSchema, data_dir: str | Path) -> tuple[DataBundle, Report]:
    """Read `<NAME>.csv` per entity (and per from-table subtype) under data_dir."""
    rep = Report()
    bundle = DataBundle()
    data_dir = Path(data_dir)
    for ent in schema.entities:
        cols = [Column(a.name, a.kind) for a in schema.effective_columns(ent.name)]
        path = data_dir / f"{ent.name}.csv"
        if not path.exists():
            rep.error("missing-table", f"no table file for entity {ent.name} (expected {path})")
            continue
        table, trep = read_csv(path, ent.name, cols, key_columns=list(ent.key_names))
        rep.diagnostics.extend(trep.diagnostics)
        if table is not None:
            bundle.add(table)
    for gen in schema.generalizations:
        sup = schema.entity(gen.supertype)
        for st in gen.subtypes:
            if not st.from_table:
                continue
            cols = [Column(a.name, a.kind) for a in (*sup.key_attrs, *st.attributes)]
            path = data_dir / f"{st.name}.csv"
            if not path.exists():
                rep.error("missing-table", f"no membership table for subtype {st.name} (expected {path})")
                continue
            table, trep = read_csv(path, st.name, cols, key_columns=list(sup.key_names))
            rep.diagnostics.extend(trep.diagnostics)
            if table is not None:
                bundle.add(table)
    return bundle, rep


def bind(schema: eer.EerSchema, bundle: DataBundle, clock: _dt.date | None = None) -> BoundModel:
    """Validate the data against the schema and tag every null cell.

    ``today()`` in membership and applicable_when predicates is ``clock``.
    Error diagnostics (missing tables, duplicate keys, dangling foreign keys,
    disjointness violations) block planning; warnings do not.
    """
    rep = Report()
    bound = BoundModel(schema=schema, bundle=bundle, report=rep)
    tables_ok = _check_tables(schema, bundle, rep)
    if tables_ok:
        clock = clock or _dt.date.today()
        _index_relationships(bound)
        _resolve_memberships(bound, clock)
        _classify_nulls(bound, clock)
    return bound


_NULL_TYPES = frozenset({type(None), Null})


def _has_null(cells: list) -> bool:
    """Whether a column holds a null cell, read or tagged."""
    return not _NULL_TYPES.isdisjoint(map(type, cells))


def _unknown_for_null(cells: list) -> list:
    """A copy of the column with every null cell tagged unknown."""
    return [UNKNOWN if v is None or type(v) is Null else v for v in cells]


def _check_tables(schema: eer.EerSchema, bundle: DataBundle, rep: Report) -> bool:
    ok = True
    for ent in schema.entities:
        table = bundle.table(ent.name)
        if table is None:
            rep.error("missing-table", f"no table for entity {ent.name}")
            ok = False
            continue
        key_cells = [table.cells[table.column_index(k)] for k in table.key_columns]
        keys = list(zip(*key_cells))
        if not any(map(_has_null, key_cells)) and len(set(keys)) == len(keys):
            continue
        seen: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if any(is_null(k) for k in key):
                rep.error("null-key", f"{ent.name}: row {i + 1} has a null key cell", f"{ent.name}:{i + 1}")
                continue
            if key in seen:
                rep.error("duplicate-key",
                          f"{ent.name}: key {key} duplicated on rows {seen[key] + 1} and {i + 1}",
                          f"{ent.name}:{i + 1}")
            else:
                seen[key] = i
    for gen in schema.generalizations:
        for st in gen.subtypes:
            if st.from_table and bundle.table(st.name) is None:
                rep.error("missing-table", f"no membership table for subtype {st.name}")
                ok = False
    return ok


def _index_relationships(bound: BoundModel) -> None:
    schema, bundle, rep = bound.schema, bound.bundle, bound.report
    for rel in schema.relationships:
        if rel.is_many_to_many:
            rep.error("unrewritten-nm", f"relationship {rel.name} is many-to-many; rewrite the schema first")
            continue
        parent_name = rel.parent_entity()
        child_name = rel.child_entity()
        parent = bundle.table(parent_name)
        child = bundle.table(child_name)
        if len(parent.key_columns) != 1:
            rep.error("composite-parent-key",
                      f"relationship {rel.name}: parent {parent_name} has a composite key; "
                      "a single foreign-key column cannot reference it")
            continue
        fk = rel.fk_columns[0]
        parent_keys = set(parent.cells[parent.column_index(parent.key_columns[0])])
        fk_cells = child.cells[child.column_index(fk)]
        child_end = rel.end_of(child_name) if not rel.is_one_to_one else rel.right
        parent_end = rel.end_of(parent_name) if not rel.is_one_to_one else rel.left
        children: dict[object, list[int]] = {}
        for i, v in enumerate(fk_cells):
            if is_null(v):
                if parent_end.min >= 1:
                    rep.warning("mandatory-participation",
                                f"{child_name}: row {i + 1} has no {parent_name} "
                                f"(null {fk}) under mandatory participation in {rel.name}",
                                f"{child_name}:{i + 1}")
                continue
            if v not in parent_keys:
                rep.error("dangling-fk",
                          f"{child_name}: row {i + 1} column {fk!r} = {v!r} matches no {parent_name} key",
                          f"{child_name}:{i + 1}")
                continue
            children.setdefault(v, []).append(i)
        if child_end.min >= 1:
            for pk in sorted(parent_keys - set(children), key=repr):
                rep.warning("mandatory-participation",
                            f"{parent_name} {pk!r} has zero {child_name} partners "
                            f"under mandatory participation in {rel.name}")
        if child_end.max == "1":
            for pk, rows in children.items():
                if len(rows) > 1:
                    rep.warning("cardinality",
                                f"{parent_name} {pk!r} has {len(rows)} {child_name} partners "
                                f"in {rel.name} (declared max 1)")
        bound.children_of[rel.name] = children


def _resolve_memberships(bound: BoundModel, clock: _dt.date) -> None:
    schema, bundle, rep = bound.schema, bound.bundle, bound.report
    for gen in schema.generalizations:
        sup = bundle.table(gen.supertype)
        sup_keys = list(sup.keys())
        membership: dict[tuple, set[str]] = {k: set() for k in sup_keys}
        for st in gen.subtypes:
            if st.from_table:
                for i, key in enumerate(bundle.table(st.name).keys()):
                    if key not in membership:
                        rep.error("dangling-member",
                                  f"{st.name}: row {i + 1} key {key} matches no {gen.supertype} instance",
                                  f"{st.name}:{i + 1}")
                        continue
                    membership[key].add(st.name)
            else:
                # each row's environment holds only the attributes the predicate reads
                names = sorted(ex.referenced_attrs(st.membership))
                read = [sup.cells[sup.column_index(n)] for n in names]
                envs = (dict(zip(names, cells)) for cells in zip(*read)) if names \
                    else repeat({}, len(sup_keys))
                for i, (env, key) in enumerate(zip(envs, sup_keys)):
                    verdict = ex.eval_expr(st.membership, env, clock=clock)
                    if is_null(verdict):
                        rep.warning("membership-null",
                                    f"{gen.supertype}: row {i + 1} membership predicate for {st.name} "
                                    "is null; treated as non-member", f"{gen.supertype}:{i + 1}")
                        continue
                    if verdict:
                        membership[key].add(st.name)
        if gen.mode == "disjoint":
            for key, names in membership.items():
                if len(names) > 1:
                    rep.error("disjointness",
                              f"{gen.supertype} {key!r} belongs to {sorted(names)} "
                              f"under disjoint generalization {gen.name}")
        uncovered = sum(1 for names in membership.values() if not names)
        if uncovered:
            rep.notice("uncovered-instances",
                       f"generalization {gen.name}: {uncovered} {gen.supertype} instance(s) "
                       "belong to no subtype and will appear in no split dataset")
        bound.subtype_membership[gen.name] = membership


def _classify_nulls(bound: BoundModel, clock: _dt.date) -> None:
    """Replace every null cell with exactly one tag, in spec priority order,
    one column at a time.

    Every column's tags are computed from the untagged table before any
    column is replaced, so applicable_when predicates see the cells as read.
    Their warnings are reported in row-major order.
    """
    schema, rep = bound.schema, bound.report
    for ent in schema.entities:
        table = bound.bundle.table(ent.name)
        names = table.column_names
        attrs = {a.name: a for a in schema.effective_columns(ent.name)}
        keys = None
        envs: dict[int, dict] = {}  # row -> its untagged cells by name
        tagged: dict[int, list] = {}
        warnings: list[tuple[int, int, str]] = []
        for j, (colname, cells) in enumerate(zip(names, table.cells)):
            if not _has_null(cells):
                continue
            gen, st = schema.subtype_owner(ent.name, colname)
            attr = attrs.get(colname)
            applicable_when = attr.applicable_when if attr is not None else None
            if gen is None and applicable_when is None:
                tagged[j] = _unknown_for_null(cells)
                continue
            members = bound.subtype_membership.get(gen.name, {}) if gen is not None else None
            if members is not None and keys is None:
                keys = list(table.keys())
            column = list(cells)
            for i, v in enumerate(cells):
                if not is_null(v):
                    continue
                if members is not None and st.name not in members.get(keys[i], ()):
                    column[i] = NOT_APPLICABLE
                    continue
                tag = UNKNOWN
                if applicable_when is not None:
                    if i not in envs:
                        envs[i] = {n: c[i] for n, c in zip(names, table.cells)}
                    applicable = ex.eval_expr(applicable_when, envs[i], clock=clock)
                    if is_null(applicable):
                        warnings.append((i, j, f"{ent.name}: row {i + 1}: applicable_when of "
                                               f"{colname!r} is null; cell classified unknown"))
                    elif not applicable:
                        tag = NOT_APPLICABLE
                column[i] = tag
            tagged[j] = column
        for i, _, message in sorted(warnings):
            rep.warning("applicability-null", message, f"{ent.name}:{i + 1}")
        for j, column in tagged.items():
            table.cells[j] = column
    # members listed in a subtype's own table: every missing cell is unknown
    for gen in schema.generalizations:
        for st in gen.subtypes:
            if st.from_table:
                cells = bound.bundle.table(st.name).cells
                for j, column in enumerate(cells):
                    if _has_null(column):
                        cells[j] = _unknown_for_null(column)


def cardinality_report(bound: BoundModel) -> list[RelationshipCardinality]:
    """Observed child fan-out per parent for every relationship, with a
    conformance verdict against the declared cardinalities."""
    out: list[RelationshipCardinality] = []
    schema, bundle = bound.schema, bound.bundle
    for rel in schema.relationships:
        if rel.name not in bound.children_of:
            continue
        parent_name = rel.parent_entity()
        child_name = rel.child_entity()
        children = bound.children_of[rel.name]
        fanouts = {k[0]: len(children.get(k[0], [])) for k in bundle.table(parent_name).keys()}
        child_end = rel.end_of(child_name) if not rel.is_one_to_one else rel.right
        violations: list[str] = []
        for pk, n in sorted(fanouts.items(), key=lambda kv: repr(kv[0])):
            if n < child_end.min:
                violations.append(f"{parent_name} {pk!r} has {n} {child_name} partners (declared min {child_end.min})")
            if child_end.max == "1" and n > 1:
                violations.append(f"{parent_name} {pk!r} has {n} {child_name} partners (declared max 1)")
        observed = list(fanouts.values()) or [0]
        out.append(RelationshipCardinality(
            relationship=rel.name,
            declared_min=child_end.min,
            declared_max=child_end.max,
            observed_min=min(observed),
            observed_max=max(observed),
            conformant=not violations,
            violations=violations,
        ))
    return out
