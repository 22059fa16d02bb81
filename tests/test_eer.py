import pytest

from cmml import eer
from conftest import parse, parse_full


def test_validate_example(example_schema):
    # fixture already validates; spot-check effective columns
    cols = [a.name for a in example_schema.effective_columns("ORDER")]
    assert cols == ["order_id", "total", "order_date", "channel", "priority_ship",
                    "cust_id", "surcharge", "discount"]
    assert [a.name for a in example_schema.effective_columns("CUSTOMER")] == [
        "cust_id", "gender", "dob"]


def test_validate_duplicate_entity():
    schema = parse("entity E { key id: identifier }")
    dup = eer.EerSchema(entities=schema.entities + schema.entities)
    rep = eer.validate_schema(dup)
    assert not rep.ok


def test_validate_unknown_relationship_entity():
    schema = parse("""
        entity A { key aid: identifier }
        relationship R { A (1,1) -- (1,N) NOPE via aid }
    """)
    assert not eer.validate_schema(schema).ok


def test_validate_bad_derivation_type():
    schema = parse("""
        entity A { key aid: identifier attr name: text
                   derived attr x: numeric = name + 1 }
    """)
    assert not eer.validate_schema(schema).ok


def test_validate_task_target_must_exist():
    schema = parse("""
        entity A { key aid: identifier attr v: numeric }
        task T { target A.nope }
    """)
    assert not eer.validate_schema(schema).ok


def test_child_entity_convention():
    schema = parse("""
        entity P { key pid: identifier }
        entity C { key cid: identifier }
        relationship R { P (1,1) -- (0,N) C via pid }
    """)
    rel = schema.relationship("R")
    # each C relates to exactly one P; C carries the foreign key
    assert rel.child_entity() == "C"
    assert rel.parent_entity() == "P"
    assert rel.end_of("C").max == "N"


def test_one_to_one_child_is_right_end():
    schema = parse("""
        entity A { key aid: identifier }
        entity B { key bid: identifier }
        relationship R { A (1,1) -- (0,1) B via aid }
    """)
    assert schema.relationship("R").child_entity() == "B"


NM_TEXT = """
entity ORDER { key order_id: identifier attr total: numeric }
entity PRODUCT { key prod_id: identifier attr price: numeric }
relationship CONTAINS { ORDER (0,N) -- (1,N) PRODUCT via order_id, prod_id { attr qty: numeric } }
"""


def test_many_to_many_rewrite():
    schema = parse_full(NM_TEXT)
    assoc = schema.entity("ORDER_PRODUCT")
    assert assoc is not None
    assert set(assoc.key_names) == {"order_id", "prod_id"}
    assert assoc.attr("qty") is not None
    assert schema.relationship("CONTAINS") is None
    r1 = schema.relationship("CONTAINS_ORDER")
    r2 = schema.relationship("CONTAINS_PRODUCT")
    assert r1.child_entity() == "ORDER_PRODUCT" and r1.parent_entity() == "ORDER"
    assert r2.child_entity() == "ORDER_PRODUCT" and r2.parent_entity() == "PRODUCT"


def test_many_to_many_rewrite_idempotent():
    schema = parse_full(NM_TEXT)
    assert eer.rewrite_many_to_many(schema) == schema


def test_many_to_many_rewrite_name_collision():
    schema = parse(NM_TEXT + "\nentity ORDER_PRODUCT { key x: identifier }")
    with pytest.raises(ValueError):
        eer.rewrite_many_to_many(schema)
    # validation reports it first, so no command reaches the rewrite's raise
    assert [(d.code, d.message, d.location) for d in eer.validate_schema(schema).errors] == [
        ("nm-name-collision", "relationship CONTAINS: its associative entity ORDER_PRODUCT "
                              "collides with an existing entity", "CONTAINS")]


def test_two_many_to_many_over_one_pair_collide():
    schema = parse(NM_TEXT + "relationship LISTS { ORDER (0,N) -- (0,N) PRODUCT "
                             "via order_id, prod_id }")
    with pytest.raises(ValueError, match="ORDER_PRODUCT"):
        eer.rewrite_many_to_many(schema)
    assert [(d.code, d.message, d.location) for d in eer.validate_schema(schema).errors] == [
        ("nm-name-collision", "relationship LISTS: its associative entity ORDER_PRODUCT "
                              "is also relationship CONTAINS's", "LISTS")]


def test_resolve_target_bfs(example_schema):
    task = example_schema.task("PREDICT_LTV")
    binding = eer.resolve_target(example_schema, task)
    assert binding.target_entity == "CUSTOMER"
    assert binding.predictor_entities == ("CUSTOMER", "ORDER")
    assert [(e.parent, e.child) for e in binding.spanning_tree] == [("CUSTOMER", "ORDER")]
    assert any("PRODUCT" in w for w in binding.warnings)  # unreachable entities


def test_resolve_target_deep_chain():
    schema = parse_full("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier }
        entity C { key cid: identifier }
        relationship AB { A (1,1) -- (0,N) B via aid }
        relationship BC { B (1,1) -- (0,N) C via bid }
        task T { target A.t }
    """)
    binding = eer.resolve_target(schema, schema.task("T"))
    assert binding.predictor_entities == ("A", "B", "C")
    assert [(e.parent, e.child) for e in binding.spanning_tree] == [
        ("A", "B"), ("B", "C")]


def test_resolve_target_cycle_reports_skipped_edge():
    schema = parse_full("""
        entity A { key aid: identifier attr t: numeric }
        entity B { key bid: identifier }
        entity C { key cid: identifier }
        relationship AB { A (1,1) -- (0,N) B via aid }
        relationship BC { B (1,1) -- (0,N) C via bid }
        relationship CA { C (1,1) -- (0,N) A via cid }
        task T { target A.t }
    """)
    binding = eer.resolve_target(schema, schema.task("T"))
    # every entity visited exactly once; the closing edge is reported
    assert sorted(binding.predictor_entities) == ["A", "B", "C"]
    assert len(binding.spanning_tree) == 2
    assert any("closes a cycle" in w for w in binding.warnings)


# The binder evaluates membership and applicable_when predicates on the stored
# columns, before any derivation runs and without relationships, so they type
# against exactly those columns.
PREDICATE_SCHEMA = """
entity CUSTOMER {{
  key cust_id: identifier
  attr dob: date
  attr spend: numeric
  attr note: text applicable_when ({applicable})
  derived attr big: boolean = spend > 100
}}
entity ORDER {{ key order_id: identifier attr total: numeric }}
relationship PLACES {{ CUSTOMER (1,1) -- (0,N) ORDER via cust_id }}
generalization G of CUSTOMER overlap {{
  subtype A when ({membership}) {{ attr a_only: numeric applicable_when ({owned}) }}
  subtype B when (spend >= 0)
}}
"""
READS_STORED = ["spend > 1", "years_between(dob, today()) < 40", "a_only > 0"]
READS_MORE = ["count(PLACES) > 1", "sum(PLACES.total) > 5", "big", "big and spend > 1"]


def _predicate_errors(applicable="spend > 0", membership="spend < 10", owned="spend > 0"):
    schema = parse(PREDICATE_SCHEMA.format(applicable=applicable, membership=membership,
                                           owned=owned))
    return [(d.code, d.message) for d in eer.validate_schema(schema).errors]


@pytest.mark.parametrize("predicate", READS_STORED)
def test_predicates_read_stored_columns(predicate):
    assert _predicate_errors(applicable=predicate) == []
    assert _predicate_errors(membership=predicate) == []
    assert _predicate_errors(owned=predicate) == []


@pytest.mark.parametrize("predicate", READS_MORE)
def test_membership_predicate_reading_more_than_stored_columns_is_a_type_error(predicate):
    [(code, message)] = _predicate_errors(membership=predicate)
    assert code == "expr-type" and message.startswith("membership of subtype A: unknown ")


@pytest.mark.parametrize("predicate", READS_MORE)
def test_applicable_when_reading_more_than_stored_columns_is_a_type_error(predicate):
    [(code, message)] = _predicate_errors(applicable=predicate)
    assert code == "expr-type"
    assert message.startswith("applicable_when of CUSTOMER.note: unknown ")


@pytest.mark.parametrize("predicate", READS_MORE)
def test_subtype_applicable_when_reading_more_than_stored_columns_is_a_type_error(predicate):
    [(code, message)] = _predicate_errors(owned=predicate)
    assert code == "expr-type" and message.startswith("applicable_when of A.a_only: unknown ")


@pytest.mark.parametrize("order,line,cycle", [
    ("derived attr w: numeric = w2 + 1 derived attr w2: numeric = w + 1", "",
     "ORDER.w -> ORDER.w2 -> ORDER.w"),
    ("derived attr w: numeric = w * 2", "", "ORDER.w -> ORDER.w"),
    # through aggregates: LINE is the parent in FOR
    ("derived attr w: numeric = sum(CONTAINS.u)", "derived attr u: numeric = sum(FOR.w)",
     "ORDER.w -> LINE.u -> ORDER.w"),
    # through an aggregate over a self-relationship: ORDER is parent and child
    ("derived attr w: numeric = sum(FOLLOWS.w)", "", "ORDER.w -> ORDER.w"),
])
def test_derivation_cycle_is_an_error(order, line, cycle):
    schema = parse(f"""
        entity ORDER {{ key order_id: identifier attr shipping: numeric {order} }}
        entity LINE {{ key line_id: identifier attr qty: numeric {line} }}
        relationship CONTAINS {{ ORDER (1,1) -- (0,N) LINE via order_id }}
        relationship FOR {{ LINE (0,1) -- (0,N) ORDER via line_id }}
        relationship FOLLOWS {{ ORDER (0,1) -- (0,N) ORDER via previous_id }}
    """)
    errors = [(d.code, d.message, d.location) for d in eer.validate_schema(schema).errors]
    assert errors == [("derivation-cycle",
                       f"derived attributes read each other in a cycle: {cycle}", "ORDER")]


def test_reads_lists_own_attributes_then_aggregates():
    from test_golden import CHAIN_SCHEMA
    schema = parse_full(CHAIN_SCHEMA)
    # same-entity names sorted, whatever order the expression names them in
    assert schema.reads("LINE", "price") == [(None, "LINE", "qty"), (None, "LINE", "unit_price")]
    assert schema.reads("ORDER", "basket") == [(None, "ORDER", "shipping"),
                                               ("CONTAINS", "LINE", "price")]
    assert schema.reads("ORDER", "lines") == [("CONTAINS", "LINE", None)]  # count
    assert schema.reads("CUSTOMER", "value") == [(None, "CUSTOMER", "bonus"),
                                                 ("PLACES", "ORDER", "basket")]


FK_KINDS = """
entity CUSTOMER {{ key cid: {key} attr bonus: numeric }}
entity ORDER {{ key oid: identifier attr total: numeric {fk} }}
relationship PLACES {{ CUSTOMER (1,1) -- (0,N) ORDER via cid }}
"""


@pytest.mark.parametrize("key,fk,kinds", [
    # the implicit foreign-key column is an identifier
    ("numeric", "", ("identifier", "numeric")),
    ("identifier", "attr cid: numeric", ("numeric", "identifier")),
    ("numeric", "attr cid: numeric", None),
    ("identifier", "", None),
])
def test_foreign_key_kind_must_match_the_referenced_key(key, fk, kinds):
    errors = [(d.code, d.message, d.location)
              for d in eer.validate_schema(parse(FK_KINDS.format(key=key, fk=fk))).errors]
    assert errors == ([] if kinds is None else [(
        "fk-kind", f"relationship PLACES: foreign key ORDER.cid is {kinds[0]} but the key "
        f"CUSTOMER.cid it references is {kinds[1]}", "PLACES")])


def test_many_to_many_parents_need_identifier_keys():
    schema = parse("""
        entity A { key aid: identifier }
        entity B { key bid: date }
        relationship R { A (0,N) -- (0,N) B via aid, bid }
    """)
    assert [(d.code, d.message) for d in eer.validate_schema(schema).errors] == [
        ("fk-kind", "relationship R: foreign key A_B.bid is identifier but the key B.bid "
                    "it references is date")]


def test_derivations_reading_each_other_without_a_cycle_are_valid():
    schema = parse("""
        entity ORDER { key order_id: identifier attr shipping: numeric
                       derived attr z2: numeric = y * 2
                       derived attr y: numeric = shipping + 1
                       derived attr n: numeric = count(CONTAINS)
                       derived attr z: numeric = n * y }
        entity LINE { key line_id: identifier attr qty: numeric }
        relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
    """)
    assert eer.validate_schema(schema).ok
