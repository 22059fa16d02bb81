from cmml import dsl, eer
from cmml import expr as ex
from conftest import EXAMPLE_SCHEMA, parse


def test_parse_example_schema():
    schema, rep = dsl.parse_schema_file(str(EXAMPLE_SCHEMA))
    assert rep.ok, rep.render()
    assert {e.name for e in schema.entities} == {"CUSTOMER", "ORDER", "PRODUCT",
                                                 "ORDER_PRODUCT"}
    cust = schema.entity("CUSTOMER")
    assert cust.key_names == ("cust_id",)
    age = cust.attr("age")
    assert age.derivation is not None
    assert ex.pretty_print(age.derivation) == "years_between(dob, today())"
    rel = schema.relationship("PLACES")
    assert rel.left.entity == "CUSTOMER" and rel.right.entity == "ORDER"
    assert rel.child_entity() == "ORDER"
    gen = schema.generalization("ORDER_SIZE")
    assert gen.mode == "disjoint"
    assert [s.name for s in gen.subtypes] == ["SMALL_ORDER", "LARGE_ORDER"]
    task = schema.task("PREDICT_LTV")
    assert (task.target_entity, task.target_attr) == ("CUSTOMER", "ltv")


def test_comments_and_optional_and_applicable_when():
    schema = parse("""
        # leading comment
        entity PERSON {
          key pid: identifier
          attr employed: boolean
          attr salary: numeric optional applicable_when (employed = true)  # trailing
        }
    """)
    a = schema.entity("PERSON").attr("salary")
    assert a.optional
    assert ex.pretty_print(a.applicable_when) == "employed = true"


def test_task_options():
    schema = parse("""
        entity E { key id: identifier attr v: numeric }
        task T { target E.v agg mean, max top_k 5 impute none }
    """)
    t = schema.task("T")
    assert t.agg_set == ("mean", "max")
    assert t.top_k == 5
    assert t.impute == "none"


def test_from_table_subtype():
    schema = parse("""
        entity E { key id: identifier attr v: numeric }
        generalization G of E overlap {
          subtype A from table { attr extra: numeric }
          subtype B when (v > 0)
        }
    """)
    gen = schema.generalization("G")
    assert gen.subtypes[0].from_table
    assert not gen.subtypes[1].from_table


def test_round_trip_print_parse():
    schema, rep = dsl.parse_schema_file(str(EXAMPLE_SCHEMA))
    assert rep.ok
    printed = dsl.print_schema(schema)
    again, rep2 = dsl.parse_schema(printed)
    assert rep2.ok, rep2.render()
    assert again == schema
    # printing is a fixed point
    assert dsl.print_schema(again).text == printed.text


def test_error_recovery_reports_both_errors():
    text = """
        entity BAD { key id: wrongkind }
        entity ALSO_BAD { attr x: numeric }
        entity OK { key id: identifier }
    """
    schema, rep = dsl.parse_schema(dsl.SchemaSource(text, origin="<t>"))
    assert not rep.ok
    assert len(rep.errors) >= 2
    assert schema.entity("OK") is not None


def test_error_locations_name_origin_line_column():
    text = "entity E {\n  key id: bogus\n}"
    _, rep = dsl.parse_schema(dsl.SchemaSource(text, origin="myfile.cmml"))
    assert any(d.location and d.location.startswith("myfile.cmml:2:") for d in rep.errors)


def test_missing_key_is_error():
    _, rep = dsl.parse_schema(dsl.SchemaSource(
        "entity E { attr v: numeric }", origin="<t>"))
    assert any(d.code == "missing-key" for d in rep.errors)


def test_derived_requires_expression():
    _, rep = dsl.parse_schema(dsl.SchemaSource(
        "entity E { key id: identifier derived attr a: numeric }", origin="<t>"))
    assert not rep.ok


def test_plain_attr_rejects_expression():
    _, rep = dsl.parse_schema(dsl.SchemaSource(
        "entity E { key id: identifier attr a: numeric = 1 + 1 }", origin="<t>"))
    assert not rep.ok


def test_relationship_attributes():
    schema = parse("""
        entity A { key aid: identifier }
        entity B { key bid: identifier }
        relationship R { A (0,N) -- (0,N) B via aid, bid { attr qty: numeric } }
    """)
    rel = schema.relationship("R")
    assert rel.is_many_to_many
    assert rel.fk_columns == ("aid", "bid")
    assert rel.rel_attributes[0].name == "qty"


def _parse_report(text):
    return dsl.parse_schema(dsl.SchemaSource(text, origin="s.cmml"))


def test_comment_inside_multiline_derivation_and_when():
    schema = parse("""
        entity E {
          key id: identifier
          attr v: numeric
          derived attr d: numeric = v  # the base value
            * 2  # doubled
            + 1
          attr w: numeric
        }
        generalization G of E disjoint {
          subtype LOW when (v <  # below the cut
                            0)
          subtype HIGH when (v >= 0)
        }
    """)
    ent = schema.entity("E")
    assert ex.pretty_print(ent.attr("d").derivation) == "v * 2 + 1"
    assert ent.attr("w") is not None
    assert ex.pretty_print(schema.generalization("G").subtypes[0].membership) == "v < 0"


def test_expression_error_is_located_at_its_own_token():
    text = ("entity E {\n"
            "  key id: identifier\n"
            "  attr v: numeric\n"
            "  derived attr d: numeric = v +\n"
            "    * 2\n"
            "}\n"
            "entity F { key id: identifier }\n")
    schema, rep = _parse_report(text)
    [err] = rep.errors
    assert (err.code, err.location) == ("parse", "s.cmml:5:5")
    assert err.message == "bad expression: expected expression, got '*'"
    assert schema.entity("F") is not None


def test_error_inside_when_is_located_at_its_own_token():
    text = ("entity E { key id: identifier attr v: numeric }\n"
            "generalization G of E disjoint {\n"
            "  subtype A when (v > 1e999)\n"
            "}\n")
    _, rep = _parse_report(text)
    [err] = rep.errors
    assert err.location == "s.cmml:3:23"
    assert err.message == "bad expression: number 1e999 is not finite"


def test_relationship_arrow_needs_adjacent_dashes():
    head = ("entity A { key aid: identifier }\n"
            "entity B { key bid: identifier attr aid: identifier }\n")
    schema = parse(head + "relationship R { A (1,1) -- (0,N) B via aid }")
    assert schema.relationship("R").right.max == "N"
    schema, rep = _parse_report(head + "relationship R { A (1,1) - - (0,N) B via aid }")
    [err] = rep.errors
    assert err.message == "expected '--', got '-'" and err.location == "s.cmml:3:26"
    assert schema.relationship("R") is None


def test_double_minus_in_derivation_is_minus_negation():
    schema = parse("entity E { key id: identifier attr a: numeric attr b: numeric "
                   "derived attr d: numeric = a--b }")
    d = schema.entity("E").attr("d").derivation
    assert d == ex.Binary("-", ex.AttrRef("a"), ex.Unary("-", ex.AttrRef("b")))


def test_stray_character_is_lex_error_and_parsing_continues():
    text = ("entity E { key id: $ identifier attr v: numeric }\n"
            "entity F { key fid: identifier }\n")
    schema, rep = _parse_report(text)
    [err] = rep.errors
    assert (err.code, err.message, err.location) == (
        "lex", "unexpected character '$'", "s.cmml:1:20")
    assert schema.entity("E").attr("v") is not None
    assert schema.entity("F") is not None


def test_top_k_must_be_a_plain_integer():
    for bad in ("5e2", "2.5", "x"):
        schema, rep = _parse_report(
            f"entity E {{ key id: identifier attr v: numeric }}\ntask T {{ target E.v top_k {bad} }}")
        [err] = rep.errors
        assert err.message == "top_k needs a positive integer"
        assert err.location == "s.cmml:2:27"
        assert schema.task("T") is None
