"""In-memory EER conceptual model: entity types, relationships with
cardinalities, generalizations, task declarations; structural validation,
many-to-many rewriting and target resolution.

Cardinality convention: each relationship end carries (entity, min, max)
where (min, max) bounds how many instances of *that* entity relate to one
instance of the opposite end. `CUSTOMER (1,1) -- (1,N) ORDER` reads: every
order has exactly one customer; every customer has one or more orders.

`EerSchema.reads` is the one definition of what a derived attribute reads;
the cycle check, the planner and the engine all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from . import expr as ex
from .diagnostics import Report

ATTRIBUTE_KINDS = ("identifier", "numeric", "nominal", "boolean", "date", "text")
AGG_SET_ALL = ("count", "mean", "sum", "min", "max")


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    is_key: bool = False
    optional: bool = False
    applicable_when: Optional[ex.Expr] = None
    derivation: Optional[ex.Expr] = None

    @property
    def is_derived(self) -> bool:
        return self.derivation is not None


@dataclass(frozen=True)
class EntityType:
    name: str
    attributes: tuple[Attribute, ...]

    @property
    def key_attrs(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.is_key)

    @property
    def key_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.key_attrs)

    def attr(self, name: str) -> Optional[Attribute]:
        for a in self.attributes:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class RelEnd:
    entity: str
    min: int  # 0 or 1
    max: str  # "1" or "N"


@dataclass(frozen=True)
class Relationship:
    name: str
    left: RelEnd
    right: RelEnd
    fk_columns: tuple[str, ...]  # 1 column (on the child) or 2 (N:M, on the associative entity)
    rel_attributes: tuple[Attribute, ...] = ()

    @property
    def is_many_to_many(self) -> bool:
        return self.left.max == "N" and self.right.max == "N"

    @property
    def is_one_to_one(self) -> bool:
        return self.left.max == "1" and self.right.max == "1"

    def child_end(self) -> RelEnd:
        """The end of the entity carrying the foreign key: the N end, or the
        right end of a 1:1. Picked by position, so a self-relationship's two
        ends stay apart."""
        return self.left if self.left.max == "N" else self.right

    def parent_end(self) -> RelEnd:
        """The end of the entity the foreign key references: the other end."""
        return self.right if self.left.max == "N" else self.left

    def child_entity(self) -> str:
        return self.child_end().entity

    def parent_entity(self) -> str:
        return self.parent_end().entity

    def associative_entity(self) -> str:
        """The entity an N:M relationship is rewritten into."""
        return f"{self.left.entity}_{self.right.entity}"

    def other(self, entity: str) -> str:
        return self.right.entity if entity == self.left.entity else self.left.entity

    def end_of(self, entity: str) -> RelEnd:
        return self.left if self.left.entity == entity else self.right


@dataclass(frozen=True)
class Subtype:
    name: str
    membership: Optional[ex.Expr]  # predicate over supertype attrs; None => from table
    attributes: tuple[Attribute, ...] = ()

    @property
    def from_table(self) -> bool:
        return self.membership is None


@dataclass(frozen=True)
class Generalization:
    name: str
    supertype: str
    mode: str  # "disjoint" | "overlap"
    subtypes: tuple[Subtype, ...]


@dataclass(frozen=True)
class TaskDecl:
    name: str
    target_entity: str
    target_attr: str
    split_by: Optional[str] = None
    agg_set: tuple[str, ...] = AGG_SET_ALL
    top_k: int = 20
    impute: str = "mean_mode"  # "mean_mode" | "none" | "constant:<value>"


@dataclass(frozen=True)
class TreeEdge:
    parent: str
    child: str
    relationship: str


@dataclass(frozen=True)
class TargetBinding:
    target_entity: str
    target_attr: str
    predictor_entities: tuple[str, ...]
    spanning_tree: tuple[TreeEdge, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class EerSchema:
    entities: tuple[EntityType, ...] = ()
    relationships: tuple[Relationship, ...] = ()
    generalizations: tuple[Generalization, ...] = ()
    tasks: tuple[TaskDecl, ...] = ()

    def entity(self, name: str) -> Optional[EntityType]:
        for e in self.entities:
            if e.name == name:
                return e
        return None

    def relationship(self, name: str) -> Optional[Relationship]:
        for r in self.relationships:
            if r.name == name:
                return r
        return None

    def generalization(self, name: str) -> Optional[Generalization]:
        for g in self.generalizations:
            if g.name == name:
                return g
        return None

    def task(self, name: str) -> Optional[TaskDecl]:
        for t in self.tasks:
            if t.name == name:
                return t
        return None

    def generalizations_of(self, entity: str) -> tuple[Generalization, ...]:
        return tuple(g for g in self.generalizations if g.supertype == entity)

    def effective_columns(self, entity: str) -> tuple[Attribute, ...]:
        """Stored columns of the entity's table: declared non-derived attributes,
        implicit foreign-key columns, and predicate-subtype attributes."""
        ent = self.entity(entity)
        cols: list[Attribute] = [a for a in ent.attributes if not a.is_derived]
        names = {a.name for a in cols}
        for rel in self.relationships:
            if rel.is_many_to_many:
                continue
            if rel.child_entity() == entity:
                fk = rel.fk_columns[0]
                if fk not in names:
                    cols.append(Attribute(fk, "identifier"))
                    names.add(fk)
        for gen in self.generalizations_of(entity):
            for st in gen.subtypes:
                if not st.from_table:
                    for a in st.attributes:
                        if a.name not in names:
                            cols.append(a)
                            names.add(a.name)
        return tuple(cols)

    def key_columns(self, entity: str) -> frozenset[str]:
        """The entity's key columns and the foreign key of each relationship
        it is the child of, whatever their kinds: they name rows, so no step
        makes a feature of them."""
        fks = {rel.fk_columns[0] for rel in self.relationships
               if not rel.is_many_to_many and rel.child_entity() == entity}
        return frozenset(self.entity(entity).key_names) | fks

    def subtype_owner(self, entity: str, column: str):
        """(generalization, subtype) owning a predicate-subtype column stored
        on the supertype's table, or (None, None)."""
        for gen in self.generalizations_of(entity):
            for st in gen.subtypes:
                if not st.from_table and any(a.name == column for a in st.attributes):
                    return gen, st
        return None, None

    def type_env(self, entity: str) -> ex.TypeEnv:
        """Typing environment for expressions owned by `entity`: its stored and
        derived attributes, plus related-entity attributes per relationship
        where `entity` sits on the one side (aggregation source)."""
        env = self.stored_env(entity)
        env.attrs.update((a.name, a.kind) for a in self.entity(entity).attributes if a.is_derived)
        for rel in self.relationships:
            if rel.is_many_to_many:
                continue
            if rel.parent_entity() == entity:
                child = self.entity(rel.child_entity())
                if child is not None:
                    env.rels[rel.name] = {a.name: a.kind for a in child.attributes}
        return env

    def stored_env(self, entity: str) -> ex.TypeEnv:
        """Typing environment of the predicates the binder evaluates: stored columns only."""
        return ex.TypeEnv(attrs={a.name: a.kind for a in self.effective_columns(entity)})

    def reads(self, entity: str, attribute: str) -> list[tuple[Optional[str], str, Optional[str]]]:
        """What a derived attribute reads, as (relationship, entity, attribute):
        its own entity's attributes by sorted name (relationship None), then per
        aggregate over a declared 1:N or 1:1 relationship the child entity and
        attribute (None for ``count(REL)``)."""
        expr = self.entity(entity).attr(attribute).derivation
        out = [(None, entity, name) for name in sorted(ex.referenced_attrs(expr))]
        for agg in ex.referenced_aggregates(expr):
            rel = self.relationship(agg.relationship)
            if rel is not None and not rel.is_many_to_many:
                out.append((rel.name, rel.child_entity(), agg.attribute))
        return out


# ---------------------------------------------------------------------------
# Structural validation


def validate_schema(schema: EerSchema) -> Report:
    """Structural diagnostics; the schema is valid iff the report has no errors."""
    rep = Report()
    _check_duplicates(schema, rep)
    for ent in schema.entities:
        _validate_entity(schema, ent, rep)
    _check_derivation_cycles(schema, rep)
    for rel in schema.relationships:
        _validate_relationship(schema, rel, rep)
    for gen in schema.generalizations:
        _validate_generalization(schema, gen, rep)
    for task in schema.tasks:
        _validate_task(schema, task, rep)
    return rep


def _check_duplicates(schema: EerSchema, rep: Report) -> None:
    for label, names in (
        ("entity", [e.name for e in schema.entities]),
        ("relationship", [r.name for r in schema.relationships]),
        ("generalization", [g.name for g in schema.generalizations]),
        ("task", [t.name for t in schema.tasks]),
    ):
        seen: set[str] = set()
        for n in names:
            if n in seen:
                rep.error("duplicate-name", f"duplicate {label} {n!r}")
            seen.add(n)


def _validate_entity(schema: EerSchema, ent: EntityType, rep: Report) -> None:
    seen: set[str] = set()
    for a in ent.attributes:
        if a.name in seen:
            rep.error("duplicate-attr", f"duplicate attribute {a.name!r} in entity {ent.name}", ent.name)
        seen.add(a.name)
        if a.kind not in ATTRIBUTE_KINDS:
            rep.error("bad-kind", f"attribute {ent.name}.{a.name} has unknown kind {a.kind!r}", ent.name)
        if a.is_key and (a.is_derived or a.optional):
            rep.error("key-derived-or-optional",
                      f"key attribute {ent.name}.{a.name} must not be derived or optional", ent.name)
    if not ent.key_attrs:
        rep.error("missing-key", f"entity {ent.name} lacks a key", ent.name)
    env = schema.type_env(ent.name)
    for a in ent.attributes:
        if a.applicable_when is not None:
            _check_expr(a.applicable_when, schema.stored_env(ent.name), "boolean",
                        f"applicable_when of {ent.name}.{a.name}", rep, ent.name)
        if a.derivation is not None:
            _check_expr(a.derivation, env, a.kind, f"derivation of {ent.name}.{a.name}", rep, ent.name)


def _check_derivation_cycles(schema: EerSchema, rep: Report) -> None:
    """No derived attribute may read itself, through same-entity references
    or aggregates over a child, directly or via other derived attributes."""
    nodes = [(ent.name, a) for ent in schema.entities for a in ent.attributes if a.is_derived]
    derived = {(e, a.name) for e, a in nodes}
    reads = {(entity, a.name): [(e, n) for _, e, n in schema.reads(entity, a.name)
                                if (e, n) in derived]
             for entity, a in nodes}
    state: dict[tuple[str, str], bool] = {}  # False while on the path, then True
    path: list[tuple[str, str]] = []

    def visit(node: tuple[str, str]) -> None:
        state[node] = False
        path.append(node)
        for dep in reads[node]:
            if dep not in state:
                visit(dep)
            elif state[dep] is False:
                cycle = path[path.index(dep):] + [dep]
                rep.error("derivation-cycle", "derived attributes read each other in a cycle: "
                          + " -> ".join(f"{e}.{n}" for e, n in cycle), dep[0])
        path.pop()
        state[node] = True

    for entity, a in nodes:
        if (entity, a.name) not in state:
            visit((entity, a.name))


def _check_expr(e: ex.Expr, env: ex.TypeEnv, want: str, what: str, rep: Report, loc: str) -> None:
    try:
        got = ex.type_of(e, env)
    except ex.ExprTypeError as err:
        rep.error("expr-type", f"{what}: {err}", loc)
        return
    if got != want and not (want == "nominal" and got == "string"):
        rep.error("expr-type", f"{what}: expected {want}, got {got}", loc)


def _validate_relationship(schema: EerSchema, rel: Relationship, rep: Report) -> None:
    for end in (rel.left, rel.right):
        if schema.entity(end.entity) is None:
            rep.error("unknown-entity", f"relationship {rel.name} references undeclared entity {end.entity!r}",
                      rel.name)
            return
        if end.min not in (0, 1) or end.max not in ("1", "N"):
            rep.error("bad-cardinality", f"relationship {rel.name}: bad cardinality on {end.entity}", rel.name)
    if rel.rel_attributes and not rel.is_many_to_many:
        rep.error("rel-attrs-not-nm",
                  f"relationship {rel.name} has attributes but is not many-to-many", rel.name)
    want_fks = 2 if rel.is_many_to_many else 1
    if len(rel.fk_columns) != want_fks:
        rep.error("bad-fk-count",
                  f"relationship {rel.name} needs {want_fks} foreign-key column(s), got {len(rel.fk_columns)}",
                  rel.name)
        return
    if rel.is_many_to_many:
        assoc = rel.associative_entity()
        if schema.entity(assoc) is not None:
            rep.error("nm-name-collision", f"relationship {rel.name}: its associative entity "
                      f"{assoc} collides with an existing entity", rel.name)
        first = next(r for r in schema.relationships
                     if r.is_many_to_many and r.associative_entity() == assoc)
        if first is not rel:
            rep.error("nm-name-collision", f"relationship {rel.name}: its associative entity "
                      f"{assoc} is also relationship {first.name}'s", rel.name)
        # the rewrite stores both foreign keys as identifier columns
        pairs = [(assoc, fk, "identifier", end.entity)
                 for fk, end in zip(rel.fk_columns, (rel.left, rel.right))]
    else:
        child, fk = rel.child_entity(), rel.fk_columns[0]
        kind = next(a.kind for a in schema.effective_columns(child) if a.name == fk)
        pairs = [(child, fk, kind, rel.parent_entity())]
    for child, fk, kind, parent in pairs:
        keys = schema.entity(parent).key_attrs
        if len(keys) == 1 and keys[0].kind != kind:
            rep.error("fk-kind", f"relationship {rel.name}: foreign key {child}.{fk} is {kind} "
                      f"but the key {parent}.{keys[0].name} it references is {keys[0].kind}", rel.name)


def _validate_generalization(schema: EerSchema, gen: Generalization, rep: Report) -> None:
    sup = schema.entity(gen.supertype)
    if sup is None:
        rep.error("unknown-entity", f"generalization {gen.name} references undeclared entity {gen.supertype!r}",
                  gen.name)
        return
    if len(gen.subtypes) < 2:
        rep.error("too-few-subtypes", f"generalization {gen.name} needs at least 2 subtypes", gen.name)
    seen: set[str] = set()
    env = schema.stored_env(gen.supertype)
    for st in gen.subtypes:
        if st.name in seen:
            rep.error("duplicate-name", f"duplicate subtype {st.name!r} in generalization {gen.name}", gen.name)
        seen.add(st.name)
        if st.membership is not None:  # the binder evaluates these on the supertype's table
            _check_expr(st.membership, env, "boolean", f"membership of subtype {st.name}", rep, gen.name)
            for a in st.attributes:
                if a.applicable_when is not None:
                    _check_expr(a.applicable_when, env, "boolean",
                                f"applicable_when of {st.name}.{a.name}", rep, gen.name)


def _validate_task(schema: EerSchema, task: TaskDecl, rep: Report) -> None:
    ent = schema.entity(task.target_entity)
    if ent is None:
        rep.error("unknown-entity", f"task {task.name} targets undeclared entity {task.target_entity!r}",
                  task.name)
        return
    if ent.attr(task.target_attr) is None:
        rep.error("unknown-attr",
                  f"task {task.name}: entity {task.target_entity} has no attribute {task.target_attr!r}",
                  task.name)
    if task.split_by is not None and schema.generalization(task.split_by) is None:
        rep.error("unknown-generalization",
                  f"task {task.name}: split_by names undeclared generalization {task.split_by!r}", task.name)
    for code, message in summary_problems(task.agg_set, task.top_k):
        rep.error(code, f"task {task.name}: {message}", task.name)


def summary_problems(agg_set: Iterable[str], top_k: int) -> list[tuple[str, str]]:
    """(code, message) per rule broken; a task block and --agg/--top-k share these."""
    problems = []
    if top_k < 1:
        problems.append(("bad-top-k", "top_k must be positive"))
    bad = [a for a in agg_set if a not in AGG_SET_ALL]
    if bad:
        problems.append(("bad-agg", f"unknown aggregate(s) {bad}"))
    return problems


# ---------------------------------------------------------------------------
# Many-to-many rewrite


def rewrite_many_to_many(schema: EerSchema) -> EerSchema:
    """Replace every N:M relationship with an associative entity `<LEFT>_<RIGHT>`
    (both keys plus the relationship attributes) and two 1:N relationships.
    Idempotent; raises ValueError on a name collision with an existing entity,
    another relationship's associative entity included.
    """
    entities = list(schema.entities)
    rels: list[Relationship] = []
    for rel in schema.relationships:
        if not rel.is_many_to_many:
            rels.append(rel)
            continue
        assoc_name = rel.associative_entity()
        if any(e.name == assoc_name for e in entities):
            raise ValueError(
                f"cannot rewrite {rel.name}: associative entity name {assoc_name!r} collides with an existing entity"
            )
        fk_left, fk_right = rel.fk_columns
        assoc = EntityType(
            assoc_name,
            (
                Attribute(fk_left, "identifier", is_key=True),
                Attribute(fk_right, "identifier", is_key=True),
            )
            + rel.rel_attributes,
        )
        entities.append(assoc)
        # associative side participates mandatorily (min 1, exactly one parent)
        rels.append(Relationship(
            name=f"{rel.name}_{rel.left.entity}",
            left=RelEnd(rel.left.entity, 1, "1"),
            right=RelEnd(assoc_name, rel.right.min, "N"),
            fk_columns=(fk_left,),
        ))
        rels.append(Relationship(
            name=f"{rel.name}_{rel.right.entity}",
            left=RelEnd(rel.right.entity, 1, "1"),
            right=RelEnd(assoc_name, rel.left.min, "N"),
            fk_columns=(fk_right,),
        ))
    return replace(schema, entities=tuple(entities), relationships=tuple(rels))


# ---------------------------------------------------------------------------
# Target resolution


def resolve_target(schema: EerSchema, task: TaskDecl) -> TargetBinding:
    """Breadth-first spanning tree over relationships reachable from the
    target-bearing entity; declaration order breaks ties, first visit wins.
    """
    root = schema.entity(task.target_entity)
    if root is None:
        raise ValueError(f"unknown target entity {task.target_entity!r}")
    if root.attr(task.target_attr) is None:
        raise ValueError(f"entity {task.target_entity} has no attribute {task.target_attr!r}")

    visited = [root.name]
    edges: list[TreeEdge] = []
    warnings: list[str] = []
    queue = [root.name]
    used_rels: set[str] = set()
    while queue:
        current = queue.pop(0)
        for rel in schema.relationships:
            if current not in (rel.left.entity, rel.right.entity):
                continue
            if rel.name in used_rels:
                continue
            other = rel.other(current)
            if other in visited:
                warnings.append(
                    f"relationship {rel.name} closes a cycle at {other}; skipped in the spanning tree"
                )
                used_rels.add(rel.name)
                continue
            used_rels.add(rel.name)
            visited.append(other)
            edges.append(TreeEdge(parent=current, child=other, relationship=rel.name))
            queue.append(other)
    unreached = [e.name for e in schema.entities if e.name not in visited]
    for name in unreached:
        warnings.append(f"entity {name} is unreachable from {root.name} and is excluded from the plan")
    return TargetBinding(
        target_entity=root.name,
        target_attr=task.target_attr,
        predictor_entities=tuple(visited),
        spanning_tree=tuple(edges),
        warnings=tuple(warnings),
    )
