import datetime as dt

import pytest

from cmml.values import (NOT_APPLICABLE, UNKNOWN, Null, box, format_cell, is_null,
                         parse_cell, parse_column)


def test_null_tags_and_equality():
    assert UNKNOWN.tag == "unknown"
    assert NOT_APPLICABLE.tag == "not_applicable"
    assert UNKNOWN != NOT_APPLICABLE
    assert UNKNOWN == Null("unknown")
    with pytest.raises(ValueError):
        Null("whatever")


def test_is_null():
    assert is_null(None)
    assert is_null(UNKNOWN)
    assert is_null(NOT_APPLICABLE)
    assert not is_null(0.0)
    assert not is_null("")


@pytest.mark.parametrize("value,expected", [
    (UNKNOWN, ""),
    (NOT_APPLICABLE, ""),
    (None, ""),
    (True, "true"),
    (False, "false"),
    (48.0, "48"),
    (48.5, "48.5"),
    (-3.0, "-3"),
    (dt.date(2019, 4, 21), "2019-04-21"),
    ("Phone", "Phone"),
])
def test_format_cell(value, expected):
    assert format_cell(value) == expected


def test_parse_cell_kinds():
    assert parse_cell("", "numeric") is None
    assert parse_cell("48.5", "numeric") == 48.5
    assert parse_cell("true", "boolean") is True
    assert parse_cell("false", "boolean") is False
    assert parse_cell("2019-04-21", "date") == dt.date(2019, 4, 21)
    assert parse_cell("Phone", "nominal") == "Phone"
    assert parse_cell("101", "identifier") == "101"


@pytest.mark.parametrize("text,kind", [
    ("yes", "boolean"),
    ("4/21/19", "date"),
    ("2019-13-01", "date"),
    ("abc", "numeric"),
])
def test_parse_cell_rejects_malformed(text, kind):
    with pytest.raises(ValueError):
        parse_cell(text, kind)


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"])
def test_parse_cell_rejects_non_finite_numeric(text):
    # float() accepts these, but format_cell cannot print them back
    with pytest.raises(ValueError, match="finite"):
        parse_cell(text, "numeric")


def test_parse_cell_keeps_finite_extremes():
    assert parse_cell("1.7976931348623157e308", "numeric") == 1.7976931348623157e308
    assert parse_cell("-0", "numeric") == 0.0


def test_format_parse_round_trip():
    for v, kind in [(48.5, "numeric"), (True, "boolean"),
                    (dt.date(2019, 4, 21), "date"), ("Online", "nominal")]:
        assert parse_cell(format_cell(v), kind) == v


@pytest.mark.parametrize("kind,fields", [
    ("date", ["2019-01-02", "", "bad", "2019-01-02", "2020-02-30", "2019-03-04", "bad"]),
    ("numeric", ["1", "x", "", "1", "2.5", "inf", "x"]),
    ("boolean", ["true", "", "maybe", "false", "true", "maybe"]),
])
def test_parse_column_in_chunks_equals_one_call(kind, fields):
    # one dict carried across the chunks: each distinct good field parsed once
    whole = parse_column(fields, kind)
    parsed: dict = {}
    first = parse_column(fields[:3], kind, parsed)
    size = len(parsed)
    second = parse_column(fields[3:], kind, parsed)
    assert box(first[0]) + box(second[0]) == box(whole[0])
    assert first[1] + [(i + 3, err) for i, err in second[1]] == whole[1]
    # an empty or malformed field reads as unknown
    assert box(whole[0]) == [UNKNOWN if t in ("", "bad", "x", "inf", "maybe", "2020-02-30") else
                             parse_cell(t, kind) for t in fields]
    if kind == "date":
        assert size == 2 and set(parsed) == {"2019-01-02", "", "2019-03-04"}
