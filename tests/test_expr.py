import datetime as dt

import numpy as np
import pytest

from cmml import expr as ex
from cmml.values import NOT_APPLICABLE, UNKNOWN, box, is_null, pack


def _kind(v):
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, dt.date):
        return "date"
    return "nominal" if isinstance(v, str) else "numeric"


def ev(text, row=None, related=None, clock=None, diagnostics=None):
    """``eval_expr`` on one row, asserted equal to ``eval_column`` on a
    one-row entity (cell ``repr`` and type, distinct diagnostics)."""
    e, row, diags = ex.parse_expr(text), row or {}, []
    want = ex.eval_expr(e, row, related, clock, diags)
    if diagnostics is not None:
        diagnostics.extend(diags)
    env = ex.TypeEnv(attrs={k: _kind(v) for k, v in row.items()},
                     rels={"PLACES": {"total": "numeric"}})
    groups = {}
    for agg in ex.referenced_aggregates(e):
        cells = related(agg.relationship, agg.attribute)
        groups[agg.relationship, agg.attribute] = (
            cells, ex.Groups(np.arange(len(cells)), np.array([len(cells)])))
    got, got_diags = ex.eval_column(
        e, 1, {k: pack([v], env.attrs[k]) for k, v in row.items()},
        {key: (pack(cells, "numeric"), g) for key, (cells, g) in groups.items()}, clock)
    got = box(got)
    assert (repr(got[0]), type(got[0])) == (repr(want), type(want))
    assert got_diags == sorted(set(diags))
    return want


# ---------------------------------------------------------------------------
# Parsing


def test_precedence_shape():
    e = ex.parse_expr("a + b * c")
    assert isinstance(e, ex.Binary) and e.op == "+"
    assert isinstance(e.rhs, ex.Binary) and e.rhs.op == "*"


def test_comparison_binds_looser_than_arithmetic():
    e = ex.parse_expr("a + 1 < b * 2")
    assert isinstance(e, ex.Binary) and e.op == "<"


def test_boolean_precedence():
    e = ex.parse_expr("a < 1 or b < 2 and c < 3")
    assert e.op == "or"
    assert e.rhs.op == "and"


def test_aggregate_parse():
    e = ex.parse_expr("sum(PLACES.total)")
    assert isinstance(e, ex.Aggregate)
    assert (e.kind, e.relationship, e.attribute) == ("sum", "PLACES", "total")
    c = ex.parse_expr("count(PLACES)")
    assert (c.kind, c.relationship, c.attribute) == ("count", "PLACES", None)


def test_function_call_parse():
    e = ex.parse_expr("years_between(dob, today())")
    assert isinstance(e, ex.Call) and e.fn == "years_between"
    assert isinstance(e.args[0], ex.AttrRef) and e.args[0].name == "dob"
    assert isinstance(e.args[1], ex.Call) and e.args[1].fn == "today"


def test_date_literal():
    e = ex.parse_expr('"2019-04-21"')
    assert isinstance(e, ex.Literal) and e.value == dt.date(2019, 4, 21)


@pytest.mark.parametrize("bad", ["a +", "sum(", "1 < 2 < 3", "count()", "@x", "(a", "1e999"])
def test_syntax_errors(bad):
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse_expr(bad)


def test_syntax_error_carries_position():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr("a + + b")
    assert err.value.line == 1 and err.value.column > 1


def test_syntax_error_keeps_bare_message():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr("a +\n  $ b")
    assert (err.value.line, err.value.column) == (2, 3)
    assert err.value.message == "unexpected character '$'"
    assert str(err.value) == "2:3: unexpected character '$'"


def test_comments_are_skipped():
    assert ex.parse_expr("a  # first\n + b # second") == ex.parse_expr("a + b")


@pytest.mark.parametrize("text", ["{", "a }", "a : b"])
def test_schema_punctuation_is_not_an_expression(text):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse_expr(text)
    assert "unexpected character" not in err.value.message


@pytest.mark.parametrize("text", [
    "a + b * c",
    "(a + b) * c",
    "-a + b",
    "-(a + b)",
    "a < 1 or b < 2 and c < 3",
    "(a < 1 or b < 2) and c < 3",
    "years_between(dob, today())",
    "sum(PLACES.total) / count(PLACES)",
    'if(x > 0, x, -x)',
    '"2019-04-21" < d',
])
def test_pretty_print_round_trip(text):
    ast = ex.parse_expr(text)
    assert ex.parse_expr(ex.pretty_print(ast)) == ast


# ---------------------------------------------------------------------------
# Typing


ENV = ex.TypeEnv(
    attrs={"total": "numeric", "channel": "nominal", "dob": "date", "flag": "boolean"},
    rels={"PLACES": {"total": "numeric", "channel": "nominal"}},
)


def test_type_of_basics():
    assert ex.type_of(ex.parse_expr("total + 1"), ENV) == "numeric"
    assert ex.type_of(ex.parse_expr("total < 5"), ENV) == "boolean"
    assert ex.type_of(ex.parse_expr("years_between(dob, today())"), ENV) == "numeric"
    assert ex.type_of(ex.parse_expr("count(PLACES)"), ENV) == "numeric"


@pytest.mark.parametrize("bad", [
    "total + channel",
    "nosuch + 1",
    "flag < 1",
    "sum(PLACES.channel)",
    "min(PLACES.channel)",
    "sum(NOPE.total)",
    "years_between(total, today())",
])
def test_type_errors(bad):
    with pytest.raises(ex.ExprTypeError):
        ex.type_of(ex.parse_expr(bad), ENV)


# ---------------------------------------------------------------------------
# Evaluation


def test_arithmetic_and_comparison():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("7 / 2") == 3.5
    assert ev("1 < 2") is True
    assert ev("2 != 2") is False


def test_null_propagation():
    assert ev("a + 1", {"a": UNKNOWN}) == UNKNOWN
    assert ev("a + 1", {"a": None}) == UNKNOWN
    assert ev("a < 1", {"a": NOT_APPLICABLE}) == UNKNOWN
    assert ev("-a", {"a": UNKNOWN}) == UNKNOWN


def test_division_by_zero_yields_unknown_with_diagnostic():
    diags = []
    assert ev("1 / 0", diagnostics=diags) == UNKNOWN
    assert len(diags) == 1 and "zero" in diags[0]


def test_years_between_floor():
    clock = dt.date(2019, 6, 1)
    row = {"dob": dt.date(1997, 3, 15)}
    assert ev("years_between(dob, today())", row, clock=clock) == 22.0
    # one day short of the boundary still floors down
    assert ev('years_between("2018-06-02", "2019-06-01")', clock=clock) == 0.0
    assert ev('days_between("2019-05-01", "2019-06-01")', clock=clock) == 31.0


def test_if_and_abs():
    assert ev("if(x > 0, x, -x)", {"x": -4.0}) == 4.0
    assert ev("abs(0 - 7)") == 7.0
    assert ev("if(x > 0, 1, 2)", {"x": UNKNOWN}) == UNKNOWN


def _related(rows):
    return lambda rel, attr: [r.get(attr) for r in rows] if rel == "PLACES" else []


def test_aggregates_over_related_rows():
    rows = [{"total": 100.0}, {"total": 50.0}, {"total": 17.0}, {"total": 25.0}]
    assert ev("count(PLACES)", related=_related(rows)) == 4.0
    assert ev("sum(PLACES.total)", related=_related(rows)) == 192.0
    assert ev("mean(PLACES.total)", related=_related(rows)) == 48.0
    assert ev("min(PLACES.total)", related=_related(rows)) == 17.0
    assert ev("max(PLACES.total)", related=_related(rows)) == 100.0


def test_aggregate_empty_set_semantics():
    assert ev("count(PLACES)", related=_related([])) == 0.0
    assert ev("sum(PLACES.total)", related=_related([])) == 0.0
    assert is_null(ev("mean(PLACES.total)", related=_related([])))
    assert is_null(ev("min(PLACES.total)", related=_related([])))


def test_aggregate_skips_null_cells():
    rows = [{"total": 10.0}, {"total": UNKNOWN}, {"total": None}]
    assert ev("mean(PLACES.total)", related=_related(rows)) == 10.0
    assert ev("count(PLACES)", related=_related(rows)) == 3.0


def test_referenced_attrs_and_aggregates():
    ast = ex.parse_expr("years_between(dob, today()) + sum(PLACES.total)")
    assert ex.referenced_attrs(ast) == {"dob"}
    aggs = ex.referenced_aggregates(ast)
    assert len(aggs) == 1 and aggs[0].relationship == "PLACES"
