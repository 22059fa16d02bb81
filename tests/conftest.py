import datetime as dt
from pathlib import Path

import pytest

from cmml import binder, dsl, eer
from cmml.values import box

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_SCHEMA = REPO / "examples" / "customer_order.cmml"
EXAMPLE_DATA = REPO / "examples" / "data"

CLOCK = dt.date(2019, 6, 1)


def column(table, name: str) -> list:
    """The named column of a table as a list of boxed cells (``values.box``:
    ``float``, ``bool``, ``datetime.date``, ``str``, or a null's tag), the
    form the tests compare with their cell-at-a-time references."""
    return box(table.cells[table.column_index(name)])


def parse(text: str) -> eer.EerSchema:
    schema, rep = dsl.parse_schema(dsl.SchemaSource(text, origin="<test>"))
    assert rep.ok, rep.render()
    return schema


def parse_full(text: str) -> eer.EerSchema:
    """Parse, validate and apply the many-to-many rewrite."""
    schema = parse(text)
    rep = eer.validate_schema(schema)
    assert rep.ok, rep.render()
    return eer.rewrite_many_to_many(schema)


@pytest.fixture(scope="session")
def example_schema() -> eer.EerSchema:
    schema, rep = dsl.parse_schema_file(str(EXAMPLE_SCHEMA))
    assert rep.ok, rep.render()
    vrep = eer.validate_schema(schema)
    assert vrep.ok, vrep.render()
    return eer.rewrite_many_to_many(schema)


@pytest.fixture(scope="session")
def example_bound(example_schema) -> binder.BoundModel:
    bundle, rep = binder.load_bundle(example_schema, EXAMPLE_DATA)
    assert rep.ok, rep.render()
    bound = binder.bind(example_schema, bundle)
    assert bound.ok, bound.report.render()
    return bound
