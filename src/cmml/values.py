"""Cell values and the two-way null classification (unknown vs not-applicable).

A null that is "unknown" is applicable but missing and may be imputed; a
"not_applicable" null is structurally absent (wrong subtype, failed
applicability predicate, absent optional partner) and must never be imputed.

``parse_cell`` reads an empty field as ``None``; ``binder.bind`` then
replaces every ``None`` in the bound tables with one of the two singletons.
"""

from __future__ import annotations

import datetime as _dt

UNKNOWN_TAG = "unknown"
NOT_APPLICABLE_TAG = "not_applicable"


class Null:
    """A tagged null cell. Two singletons exist: UNKNOWN and NOT_APPLICABLE."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        if tag not in (UNKNOWN_TAG, NOT_APPLICABLE_TAG):
            raise ValueError(f"bad null tag: {tag!r}")
        self.tag = tag

    def __repr__(self) -> str:
        return f"Null({self.tag})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("Null", self.tag))


UNKNOWN = Null(UNKNOWN_TAG)
NOT_APPLICABLE = Null(NOT_APPLICABLE_TAG)


def is_null(v: object) -> bool:
    return v is None or isinstance(v, Null)


def format_cell(v: object) -> str:
    """Render a cell for CSV output. Nulls of either tag become the empty field."""
    if is_null(v):
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, _dt.date):
        return v.isoformat()
    return str(v)


def parse_cell(text: str, kind: str):
    """Parse one CSV field under an attribute kind. Empty field -> None.

    Raises ValueError on malformed input (caller turns it into a diagnostic).
    """
    if text == "":
        return None
    if kind == "numeric":
        return float(text)
    if kind == "boolean":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    if kind == "date":
        try:
            return _dt.date.fromisoformat(text)
        except ValueError:
            raise ValueError(f"expected ISO-8601 date (YYYY-MM-DD), got {text!r}")
    # identifier, nominal, text are kept verbatim
    return text
