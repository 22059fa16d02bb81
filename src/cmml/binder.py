"""Bind a DataBundle to an EerSchema: referential integrity, subtype
membership resolution, and classification of every null cell as unknown
(imputable) vs not-applicable (never imputed).

Binding tags the null cells in place: every ``None`` that ``read_csv`` left
in a bound table becomes the ``values.UNKNOWN`` or ``values.NOT_APPLICABLE``
singleton, so later stages read the class from the cell itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import eer
from . import expr as ex
from .diagnostics import Report
from .tabular import DataBundle, Table, read_csv
from .values import NOT_APPLICABLE, UNKNOWN, is_null


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
    # tagged in place by bind: once the table checks pass, no cell is None
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
        cols = [(a.name, a.kind) for a in schema.effective_columns(ent.name)]
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
            cols = [(a.name, a.kind) for a in sup.key_attrs] + [(a.name, a.kind) for a in st.attributes]
            path = data_dir / f"{st.name}.csv"
            if not path.exists():
                rep.error("missing-table", f"no membership table for subtype {st.name} (expected {path})")
                continue
            table, trep = read_csv(path, st.name, cols, key_columns=list(sup.key_names))
            rep.diagnostics.extend(trep.diagnostics)
            if table is not None:
                bundle.add(table)
    return bundle, rep


def row_dict(table: Table, row: list) -> dict:
    return dict(zip(table.column_names, row))


def bind(schema: eer.EerSchema, bundle: DataBundle) -> BoundModel:
    """Validate the data against the schema and tag every null cell in place.

    Error diagnostics (missing tables, duplicate keys, dangling foreign keys,
    disjointness violations) block planning; warnings do not.
    """
    rep = Report()
    bound = BoundModel(schema=schema, bundle=bundle, report=rep)
    tables_ok = _check_tables(schema, bundle, rep)
    if tables_ok:
        _index_relationships(bound)
        _resolve_memberships(bound)
        _classify_nulls(bound)
    return bound


def _check_tables(schema: eer.EerSchema, bundle: DataBundle, rep: Report) -> bool:
    ok = True
    for ent in schema.entities:
        table = bundle.table(ent.name)
        if table is None:
            rep.error("missing-table", f"no table for entity {ent.name}")
            ok = False
            continue
        seen: dict[tuple, int] = {}
        for i, row in enumerate(table.rows):
            key = table.key_tuple(row)
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
        parent_ent = schema.entity(parent_name)
        if len(parent_ent.key_names) != 1:
            rep.error("composite-parent-key",
                      f"relationship {rel.name}: parent {parent_name} has a composite key; "
                      "a single foreign-key column cannot reference it")
            continue
        fk = rel.fk_columns[0]
        parent_keys = {row[parent.column_index(parent_ent.key_names[0])] for row in parent.rows}
        children: dict[object, list[int]] = {}
        fk_idx = child.column_index(fk)
        child_end = rel.end_of(child_name) if not rel.is_one_to_one else rel.right
        parent_end = rel.end_of(parent_name) if not rel.is_one_to_one else rel.left
        for i, row in enumerate(child.rows):
            v = row[fk_idx]
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


def _resolve_memberships(bound: BoundModel) -> None:
    schema, bundle, rep = bound.schema, bound.bundle, bound.report
    for gen in schema.generalizations:
        sup = bundle.table(gen.supertype)
        membership: dict[tuple, set[str]] = {sup.key_tuple(r): set() for r in sup.rows}
        for st in gen.subtypes:
            if st.from_table:
                mt = bundle.table(st.name)
                for i, row in enumerate(mt.rows):
                    key = mt.key_tuple(row)
                    if key not in membership:
                        rep.error("dangling-member",
                                  f"{st.name}: row {i + 1} key {key} matches no {gen.supertype} instance",
                                  f"{st.name}:{i + 1}")
                        continue
                    membership[key].add(st.name)
            else:
                for i, row in enumerate(sup.rows):
                    ctx = row_dict(sup, row)
                    verdict = ex.eval_expr(st.membership, ctx)
                    if is_null(verdict):
                        rep.warning("membership-null",
                                    f"{gen.supertype}: row {i + 1} membership predicate for {st.name} "
                                    "is null; treated as non-member", f"{gen.supertype}:{i + 1}")
                        continue
                    if verdict:
                        membership[sup.key_tuple(row)].add(st.name)
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


def _classify_nulls(bound: BoundModel) -> None:
    """Replace every null cell with exactly one tag, in spec priority order.

    A row's tags are all computed from the untagged row before any is
    written, so applicable_when predicates see the cells as read.
    """
    schema, rep = bound.schema, bound.report
    for ent in schema.entities:
        table = bound.bundle.table(ent.name)
        cols = {a.name: a for a in schema.effective_columns(ent.name)}
        for i, row in enumerate(table.rows):
            ctx = None
            key = table.key_tuple(row)
            tags = []
            for j, (colname, _) in enumerate(table.columns):
                if not is_null(row[j]):
                    continue
                tag = UNKNOWN
                gen, st = schema.subtype_owner(ent.name, colname)
                if gen is not None:
                    members = bound.subtype_membership.get(gen.name, {}).get(key, set())
                    if st.name not in members:
                        tags.append((j, NOT_APPLICABLE))
                        continue
                attr = cols.get(colname)
                if attr is not None and attr.applicable_when is not None:
                    if ctx is None:
                        ctx = row_dict(table, row)
                    applicable = ex.eval_expr(attr.applicable_when, ctx)
                    if is_null(applicable):
                        rep.warning("applicability-null",
                                    f"{ent.name}: row {i + 1}: applicable_when of {colname!r} is null; "
                                    "cell classified unknown", f"{ent.name}:{i + 1}")
                    elif not applicable:
                        tag = NOT_APPLICABLE
                tags.append((j, tag))
            for j, tag in tags:
                row[j] = tag
    # members listed in a subtype's own table: every missing cell is unknown
    for gen in schema.generalizations:
        for st in gen.subtypes:
            if st.from_table:
                for row in bound.bundle.table(st.name).rows:
                    for j, v in enumerate(row):
                        if is_null(v):
                            row[j] = UNKNOWN


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
        parent = bundle.table(parent_name)
        parent_ent = schema.entity(parent_name)
        key_col = parent.column_index(parent_ent.key_names[0])
        children = bound.children_of[rel.name]
        fanouts = {row[key_col]: len(children.get(row[key_col], [])) for row in parent.rows}
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
