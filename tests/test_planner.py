import json

import pytest

from cmml import eer, planner
from conftest import parse, parse_full


def _plan(schema, task_name="T", **opt_overrides):
    task = schema.task(task_name)
    options = planner.PlanOptions.from_task(task, **opt_overrides)
    return planner.compile_plan(schema, task, options)


def test_example_plan_step_order(example_schema):
    plan = _plan(example_schema, "PREDICT_LTV")
    kinds = [(s.kind, s.params.get("attribute") or s.params.get("child")
              or s.params.get("dataset") or s.params.get("generalization"))
             for s in plan.steps]
    assert kinds == [
        ("derive_attr", "age"),        # plain derivation first
        ("summarize_child", "ORDER"),  # bottom-up summarization
        ("derive_attr", "ltv"),        # aggregate-bearing derivation after
        ("impute_columns", "PREDICT_LTV"),
        ("emit_dataset", "PREDICT_LTV"),
    ]
    assert plan.outputs == ("PREDICT_LTV",)


def test_deep_tree_summarizes_bottom_up():
    schema = parse_full("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier
                   derived attr nb: numeric = count(BC) }
        entity C { key cid: identifier attr v: numeric }
        relationship AB { A (1,1) -- (0,N) B via aid }
        relationship BC { B (1,1) -- (0,N) C via bid }
        task T { target A.t }
    """)
    plan = _plan(schema)
    kinds = [(s.kind, s.params.get("child") or s.params.get("attribute")
              or s.params.get("dataset")) for s in plan.steps]
    # C summarized onto B, then B's aggregate derivation, then B onto A
    assert kinds.index(("summarize_child", "C")) < kinds.index(("derive_attr", "nb"))
    assert kinds.index(("derive_attr", "nb")) < kinds.index(("summarize_child", "B"))


CHAIN = """
    entity A { key aid: identifier attr t: numeric
               derived attr s: numeric = sum(AB.y) + t }
    entity B { key bid: identifier attr x: numeric
               derived attr y: numeric = sum(BC.w) + x
               derived attr x2: numeric = x * 2 }
    entity C { key cid: identifier attr v: numeric
               derived attr w: numeric = v + 1
               derived attr n: numeric = count(CD) }
    entity D { key did: identifier attr u: numeric }
    relationship AB { A (1,1) -- (0,N) B via aid }
    relationship BC { B (1,1) -- (0,N) C via bid }
    relationship CD { C (1,1) -- (0,N) D via cid }
    task T { target A.t }
"""


def test_derivation_order_is_the_plans_order(example_schema):
    chain = parse_full(CHAIN)
    binding = eer.resolve_target(chain, chain.task("T"))
    order = [(e, a.name) for e, a in planner.derivation_order(chain, binding)]
    # plain derivations breadth-first, then aggregate-bearing ones bottom-up
    assert order == [("B", "x2"), ("C", "w"), ("C", "n"), ("B", "y"), ("A", "s")]
    for schema, task in ((chain, "T"), (example_schema, "PREDICT_LTV")):
        plan = _plan(schema, task)
        steps = [(s.params["entity"], s.params["attribute"])
                 for s in plan.steps if s.kind == "derive_attr"]
        assert steps == [(e, a.name) for e, a in planner.derivation_order(schema, plan.binding)]


def test_derivations_follow_what_they_read():
    schema = parse_full("""
        entity A { key aid: identifier attr t: numeric
                   derived attr z2: numeric = y * 2
                   derived attr n: numeric = count(AB)
                   derived attr y: numeric = t + 1
                   derived attr z: numeric = n * 2
                   derived attr q: numeric = t * 3
                   derived attr zz: numeric = z + y }
        entity B { key bid: identifier attr u: numeric }
        relationship AB { A (1,1) -- (0,N) B via aid }
        task T { target A.t }
    """)
    plan = _plan(schema)
    steps = [(s.kind, s.params.get("attribute") or s.params.get("child")) for s in plan.steps]
    # y before z2, which reads it; z and zz read the aggregate-bearing n, so
    # they follow it after the summary; declaration order elsewhere
    assert steps[:5] == [("derive_attr", "y"), ("derive_attr", "z2"), ("derive_attr", "q"),
                         ("summarize_child", "B"), ("derive_attr", "n")]
    assert steps[5:7] == [("derive_attr", "z"), ("derive_attr", "zz")]
    binding = plan.binding
    assert [a.name for _, a in planner.derivation_order(schema, binding)] == [
        "y", "z2", "q", "n", "z", "zz"]


def test_derivation_order_refuses_a_cycle():
    # parsed but not validated: validate_schema reports the cycle first
    schema = eer.rewrite_many_to_many(parse("""
        entity A { key aid: identifier attr t: numeric
                   derived attr w: numeric = w2 + 1
                   derived attr w2: numeric = w + 1 }
        task T { target A.t }
    """))
    with pytest.raises(planner.PlanError, match="derived attributes of A read each other"):
        _plan(schema)


def test_one_to_one_join_step():
    schema = parse_full("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier attr v: numeric }
        relationship AB { A (1,1) -- (0,1) B via aid }
        task T { target A.t }
    """)
    plan = _plan(schema)
    assert any(s.kind == "join_one_to_one" and s.params["child"] == "B"
               for s in plan.steps)
    assert not any(s.kind == "summarize_child" for s in plan.steps)


SPLIT_TEXT = """
entity E { key id: identifier attr t: numeric attr size: numeric }
generalization G of E disjoint {
  subtype SMALL when (size < 10)
  subtype BIG when (size >= 10)
}
task T { target E.t split_by G }
task AUTO { target E.t }
"""


def test_explicit_split():
    schema = parse_full(SPLIT_TEXT)
    plan = _plan(schema, "T")
    assert plan.outputs == ("T_SMALL", "T_BIG")
    assert any(s.kind == "subtype_split" for s in plan.steps)
    # one impute and one emit per output, imputes before emits
    assert [s.params["dataset"] for s in plan.steps if s.kind == "impute_columns"] == [
        "T_SMALL", "T_BIG"]


def test_auto_split_single_generalization_with_note():
    schema = parse_full(SPLIT_TEXT)
    plan = _plan(schema, "AUTO")
    assert plan.outputs == ("AUTO_SMALL", "AUTO_BIG")
    assert any("exactly one generalization" in n for n in plan.notes)


def test_split_by_foreign_generalization_rejected():
    schema = parse_full(SPLIT_TEXT + """
        entity F { key fid: identifier attr t: numeric }
        task BAD { target F.t split_by G }
    """)
    with pytest.raises(planner.PlanError):
        _plan(schema, "BAD")


def test_agg_option_filters_summaries(example_schema):
    plan = _plan(example_schema, "PREDICT_LTV", agg_set=("count", "mean"))
    s = next(s for s in plan.steps if s.kind == "summarize_child")
    assert s.params["aggregates"] == ["mean"]  # count is implicit, always on


def test_impute_none_drops_impute_steps(example_schema):
    plan = _plan(example_schema, "PREDICT_LTV", impute="none")
    assert not any(s.kind == "impute_columns" for s in plan.steps)


def test_guideline_tags(example_schema):
    plan = _plan(example_schema, "PREDICT_LTV")
    by_kind = {s.kind: s.guidelines for s in plan.steps}
    assert by_kind["derive_attr"] == ("G2",)
    assert by_kind["summarize_child"] == ("G4",)
    assert by_kind["impute_columns"] == ("G3",)


def test_explain_mentions_each_output_once(example_schema):
    plan = _plan(example_schema, "PREDICT_LTV")
    text = planner.explain_plan(plan)
    assert "Guideline 4" in text and "entity summarization" in text
    assert text.count("PREDICT_LTV") >= 1
    # numbered steps
    assert "1." in text and "2." in text


def test_plan_to_json_carries_task_target_and_options(example_schema):
    doc = json.loads(planner.plan_to_json(_plan(example_schema, "PREDICT_LTV")))
    assert doc["task"] == "PREDICT_LTV"
    assert doc["target"] == "CUSTOMER.ltv"
    assert doc["options"]["top_k"] == 20


def test_aggregated_nonnumeric_target_rejected():
    schema = parse_full("""
        entity A { key aid: identifier
                   derived attr worst: date = min(AB.d) }
        entity B { key bid: identifier attr d: date }
        relationship AB { A (1,1) -- (0,N) B via aid }
        task T { target A.worst }
    """)
    with pytest.raises(planner.PlanError):
        _plan(schema)
