"""Compile a schema + task into an ordered, guideline-tagged
transformation plan, with a human-readable explanation and a JSON form.
Plans depend only on schema + task + options, never on the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import eer
from . import expr as ex

GUIDELINES = ("G1", "G2", "G3", "G4", "G5")


@dataclass(frozen=True)
class PlanOptions:
    agg_set: tuple[str, ...] = eer.AGG_SET_ALL
    top_k: int = 20
    impute: str = "mean_mode"  # mean_mode | none | constant:<value>
    seed: Optional[int] = None
    holdout: float = 0.0

    @classmethod
    def from_task(cls, task: eer.TaskDecl, **overrides) -> "PlanOptions":
        base = dict(agg_set=tuple(task.agg_set), top_k=task.top_k, impute=task.impute)
        base.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**base)

    def to_dict(self) -> dict:
        return {"agg": list(self.agg_set), "top_k": self.top_k, "impute": self.impute,
                "seed": self.seed, "holdout": self.holdout}


@dataclass(frozen=True)
class PlanStep:
    kind: str
    guidelines: tuple[str, ...]
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "guidelines": list(self.guidelines), **self.params}


@dataclass(frozen=True)
class TransformationPlan:
    task: str
    binding: eer.TargetBinding
    steps: tuple[PlanStep, ...]
    outputs: tuple[str, ...]
    options: PlanOptions
    notes: tuple[str, ...] = ()


class PlanError(ValueError):
    pass


def compile_plan(schema: eer.EerSchema, task: eer.TaskDecl, options: Optional[PlanOptions] = None
                 ) -> TransformationPlan:
    """Compile the ordered step list.

    Step order: non-aggregate derivations on every tree entity; bottom-up
    child summarization (deepest edges first, one-partner hops joined in
    place, each child's aggregate-bearing derivations just before it);
    aggregate-bearing derivations on the target entity; one-to-one joins at
    the target entity; subtype split; per-dataset imputation; emission. The
    derivations thus run in `derivation_order`.
    """
    options = options or PlanOptions.from_task(task)
    binding = eer.resolve_target(schema, task)
    root = binding.target_entity
    target_attr = schema.entity(root).attr(binding.target_attr)

    if target_attr.derivation is not None and ex.referenced_aggregates(target_attr.derivation):
        if target_attr.kind != "numeric":
            raise PlanError(
                f"target {root}.{target_attr.name} aggregates child data but is {target_attr.kind}, "
                "not numeric")

    steps: list[PlanStep] = []
    notes: list[str] = list(binding.warnings)

    staged = {e: _staged_derivations(schema, e) for e in binding.predictor_entities}

    def derive(entity: str, attrs: list[eer.Attribute]) -> list[PlanStep]:
        return [PlanStep("derive_attr", ("G2",), {"entity": entity, "attribute": a.name,
                                                  "expression": ex.pretty_print(a.derivation)})
                for a in attrs]

    # (a) non-aggregate derivations; aggregate-bearing ones wait for their
    # entity's slot in (b) or (c)
    for entity in binding.predictor_entities:
        steps += derive(entity, staged[entity][0])

    # (b) bottom-up along the spanning tree; aggregate-bearing derivations on a
    # child run once its own subtree is summarized, just before it is consumed
    root_joins: list[eer.TreeEdge] = []
    for edge in _deepest_first(binding):
        rel = schema.relationship(edge.relationship)
        child_per_parent = rel.end_of(edge.child).max
        steps += derive(edge.child, staged[edge.child][1])
        if child_per_parent == "N":
            steps.append(PlanStep("summarize_child", ("G4",), {
                "parent": edge.parent, "child": edge.child,
                "relationship": edge.relationship,
                "aggregates": [a for a in options.agg_set if a != "count"],
                "top_k": options.top_k,
            }))
        elif edge.parent == root:
            root_joins.append(edge)
        else:
            steps.append(PlanStep("join_one_to_one", (), {
                "parent": edge.parent, "child": edge.child,
                "relationship": edge.relationship,
            }))

    # (c) aggregate-bearing derivations on the target entity
    steps += derive(root, staged[root][1])

    # (d) one-to-one joins at the target entity
    for edge in root_joins:
        steps.append(PlanStep("join_one_to_one", (), {
            "parent": edge.parent, "child": edge.child,
            "relationship": edge.relationship,
        }))

    # (e) subtype split
    split_gen = _choose_split(schema, task, root, notes)
    if split_gen is not None:
        steps.append(PlanStep("subtype_split", ("G5",), {"generalization": split_gen.name}))
        outputs = tuple(f"{task.name}_{st.name}" for st in split_gen.subtypes)
    else:
        outputs = (task.name,)

    # (f) imputation per output dataset, (g) emission
    for name in outputs:
        if options.impute != "none":
            steps.append(PlanStep("impute_columns", ("G3",),
                                  {"dataset": name, "strategy": options.impute}))
    for name in outputs:
        steps.append(PlanStep("emit_dataset", (), {"dataset": name}))

    return TransformationPlan(task=task.name, binding=binding, steps=tuple(steps),
                              outputs=outputs, options=options, notes=tuple(notes))


def _deepest_first(binding: eer.TargetBinding) -> list[eer.TreeEdge]:
    """Tree edges by decreasing depth of their child; ties keep tree order."""
    depth = {binding.target_entity: 0}
    for e in binding.spanning_tree:
        depth[e.child] = depth[e.parent] + 1
    return sorted(binding.spanning_tree, key=lambda e: -depth[e.child])


def derivation_order(schema: eer.EerSchema, binding: eer.TargetBinding
                     ) -> list[tuple[str, eer.Attribute]]:
    """Every derived attribute of the binding's tree as (entity, attribute),
    in the order the plan derives them: the non-aggregate ones entity by
    entity in breadth-first order, then the aggregate-bearing ones bottom-up
    (the child of each deepest-first edge, the target entity last), so an
    aggregate reads child columns that are already derived. Within an
    entity, each derivation follows the derived attributes it reads."""
    staged = {e: _staged_derivations(schema, e) for e in binding.predictor_entities}
    order = [(e, a) for e in binding.predictor_entities for a in staged[e][0]]
    for entity in [e.child for e in _deepest_first(binding)] + [binding.target_entity]:
        order += [(entity, a) for a in staged[entity][1]]
    return order


def _staged_derivations(schema: eer.EerSchema, entity: str
                        ) -> tuple[list[eer.Attribute], list[eer.Attribute]]:
    """The entity's derived attributes in dependency order, declaration order
    where none reads another, split in two: those that read no aggregate,
    and those that do, directly or through a derived attribute they read."""
    derived = [a for a in schema.entity(entity).attributes if a.is_derived]
    reads = {a.name: ex.referenced_attrs(a.derivation) & {d.name for d in derived}
             for a in derived}
    ordered: list[eer.Attribute] = []
    placed: set[str] = set()
    while len(ordered) < len(derived):
        ready = next((a for a in derived if a.name not in placed and reads[a.name] <= placed), None)
        if ready is None:
            raise PlanError(f"derived attributes of {entity} read each other in a cycle")
        ordered.append(ready)
        placed.add(ready.name)
    with_agg: set[str] = set()
    for a in ordered:
        if ex.referenced_aggregates(a.derivation) or reads[a.name] & with_agg:
            with_agg.add(a.name)
    return ([a for a in ordered if a.name not in with_agg],
            [a for a in ordered if a.name in with_agg])


def _choose_split(schema: eer.EerSchema, task: eer.TaskDecl, root: str,
                  notes: list[str]) -> Optional[eer.Generalization]:
    if task.split_by is not None:
        gen = schema.generalization(task.split_by)
        if gen is None or gen.supertype != root:
            raise PlanError(
                f"split_by {task.split_by!r} does not name a generalization of the "
                f"target-bearing entity {root}")
        return gen
    gens = schema.generalizations_of(root)
    if len(gens) == 1:
        notes.append(
            f"target-bearing entity {root} has exactly one generalization "
            f"({gens[0].name}); splitting by it")
        return gens[0]
    if len(gens) > 1:
        notes.append(
            f"target-bearing entity {root} has {len(gens)} generalizations and no "
            "split_by was given; emitting a single dataset")
    return None


# ---------------------------------------------------------------------------
# Explanation


def explain_plan(plan: TransformationPlan) -> str:
    """One numbered paragraph per step: the guideline realized, the entities
    involved and the columns produced."""
    lines = [
        f"Plan for task {plan.task}: predict "
        f"{plan.binding.target_entity}.{plan.binding.target_attr}.",
        "Guideline 1 (feature labeling) applies globally: every output column "
        "is labeled with its entities of origin.",
    ]
    for note in plan.notes:
        lines.append(f"Note: {note}")
    for i, step in enumerate(plan.steps, start=1):
        lines.append(f"{i}. {_describe(step)}")
    return "\n".join(lines) + "\n"


def _describe(step: PlanStep) -> str:
    p = step.params
    if step.kind == "derive_attr":
        return (f"Guideline 2 (derive features): compute {p['entity']}.{p['attribute']} "
                f"= {p['expression']}, producing column "
                f"{p['entity']}_{p['attribute']}.")
    if step.kind == "summarize_child":
        aggs = ", ".join(p["aggregates"])
        return (f"Guideline 4 (entity summarization): collapse {p['child']} rows onto "
                f"{p['parent']} via relationship {p['relationship']}, producing "
                f"{p['child']}_count, numeric summaries ({aggs}) per numeric column, "
                f"per-category counts for the top {p['top_k']} categories of each nominal "
                f"column, true-counts for booleans, newline-concatenation for text and "
                f"min/max for dates.")
    if step.kind == "join_one_to_one":
        return (f"Join the single {p['child']} partner of each {p['parent']} row via "
                f"relationship {p['relationship']} (one-partner hop; no duplication), "
                f"producing {p['child']}-prefixed columns.")
    if step.kind == "subtype_split":
        return (f"Guideline 5 (multiple training datasets): split by generalization "
                f"{p['generalization']}, one dataset per subtype with only that "
                f"subtype's members and subtype-specific columns.")
    if step.kind == "impute_columns":
        return (f"Guideline 3 (impute features): fill nulls classified applicable-but-"
                f"unknown using strategy {p['strategy']} with statistics computed within "
                f"this output dataset; not-applicable cells are never altered.")
    if step.kind == "emit_dataset":
        return f"Emit dataset {p['dataset']} (rows sorted by key; null-target rows dropped)."
    return f"{step.kind}: {p}"


# ---------------------------------------------------------------------------
# JSON form


def plan_to_json(plan: TransformationPlan) -> str:
    doc = {
        "task": plan.task,
        "target": f"{plan.binding.target_entity}.{plan.binding.target_attr}",
        "binding": {
            "predictor_entities": list(plan.binding.predictor_entities),
            "spanning_tree": [
                {"parent": e.parent, "child": e.child, "relationship": e.relationship}
                for e in plan.binding.spanning_tree
            ],
            "warnings": list(plan.binding.warnings),
        },
        "steps": [s.to_dict() for s in plan.steps],
        "outputs": list(plan.outputs),
        "options": plan.options.to_dict(),
        "notes": list(plan.notes),
    }
    return json.dumps(doc, indent=2)
