"""Cell values and the two-way null classification (unknown vs not-applicable).

A null that is "unknown" is applicable but missing and may be imputed; a
"not_applicable" null is structurally absent (wrong subtype, failed
applicability predicate, absent optional partner) and must never be imputed.

``parse_cell`` reads an empty field as ``None`` (``parse_column`` reads a
column of fields the same way); ``binder.bind`` then replaces every ``None``
in the bound tables with one of the two singletons.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from collections.abc import Sequence
from typing import Optional

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


# The one date form (cells, CMML_TODAY, literals); fromisoformat alone reads 20190102 on 3.11
DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> _dt.date:
    """Read a YYYY-MM-DD date; raises ValueError for any other text."""
    if DATE_RE.fullmatch(text):
        try:
            return _dt.date.fromisoformat(text)
        except ValueError:
            pass
    raise ValueError(f"expected ISO-8601 date (YYYY-MM-DD), got {text!r}")


def is_null(v: object) -> bool:
    return v is None or isinstance(v, Null)


def format_float(v: float) -> str:
    """Integral floats below 1e15 print without a fraction; others as repr."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_cell(v: object) -> str:
    """Render a cell for CSV output. Nulls of either tag become the empty field."""
    if is_null(v):
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
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
        v = float(text)
        if not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {text!r}")
        return v
    if kind == "boolean":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    if kind == "date":
        return parse_date(text)
    # identifier, nominal, text are kept verbatim
    return text


_BOOLEANS = {"true": True, "false": False, "": None}


def parse_column(fields: Sequence[str], kind: str, parsed: Optional[dict[str, object]] = None
                 ) -> tuple[list, list[tuple[int, str]]]:
    """``parse_cell`` over one column's fields, dispatched once on the kind:
    the cells, and the position and message of each malformed field (its
    cell is None). Dates, and a column holding a malformed field, are parsed
    once per distinct field; ``parsed`` maps each field parsed so far to its
    cell and is filled here, so a column read in chunks that passes the same
    dict to each call parses each distinct date once."""
    if kind == "numeric":
        try:
            cells = [float(t) if t else None for t in fields]
            # a nan or an infinity makes the sum non-finite; so may an overflow
            # of finite cells, which the per-field parse below then accepts
            if math.isfinite(sum(filter(None, cells))):
                return cells, []
        except ValueError:
            pass
    elif kind == "boolean":
        try:
            return [_BOOLEANS[t] for t in fields], []
        except KeyError:
            pass
    elif kind != "date":
        return [t or None for t in fields], []
    if parsed is None:
        parsed = {}
    errors: dict[str, str] = {}
    for t in set(fields).difference(parsed):
        try:
            parsed[t] = parse_cell(t, kind)
        except ValueError as err:
            errors[t] = str(err)
    cells = [parsed.get(t) for t in fields]
    return cells, [(i, errors[t]) for i, t in enumerate(fields) if t in errors] if errors else []
