"""Cell values, typed columns and the two-way null classification (unknown
vs not-applicable).

A null that is "unknown" is applicable but missing and may be imputed; a
"not_applicable" null is structurally absent (wrong subtype, failed
applicability predicate, absent optional partner) and must never be imputed.

A column is a ``Vec``: typed values plus one int8 null code per row (0 a
value, 1 unknown, 2 not applicable), the validity-buffer layout of the Arrow
columnar format. ``parse_column`` reads an empty field as unknown;
``binder.bind`` then rewrites the codes of the nulls that are not
applicable. ``box`` turns a column back into Python cells (``float``,
``bool``, ``datetime.date``, ``str``, and the ``UNKNOWN`` and
``NOT_APPLICABLE`` singletons) for ``Table.rows``; ``parse_cell`` reads one
field as such a cell, an empty one as ``None``.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from collections.abc import Sequence
from itertools import repeat
from typing import Optional

import numpy as np

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


class Vec:
    """One column: ``values``, and each row's null code in ``null`` (int8:
    0 a value, 1 unknown, 2 not applicable; ``TAGS[code]`` is its boxed
    tag). ``values`` is float64 for numeric, bool for boolean, int64 day
    ordinals for date and an object array of ``str`` for the text kinds. A
    null row's value is a filler that no known row reads: nan for numeric,
    so a numeric column's nans are exactly its nulls. A Vec is never
    changed in place; a step that changes a column makes a new one."""

    __slots__ = ("values", "null")

    def __init__(self, values: np.ndarray, null: np.ndarray):
        self.values = values
        self.null = null

    def __len__(self) -> int:
        return len(self.null)

    def take(self, rows) -> "Vec":
        """The rows ``rows`` (an index array or a slice), in that order."""
        return Vec(self.values[rows], self.null[rows])

    def with_absent(self, code: int) -> "Vec":
        """The column with one null row of code ``code`` appended: the cell
        of an absent partner, which an index ``len(self)`` picks."""
        filler = np.array([_FILLERS.get(self.values.dtype.kind, "")], dtype=self.values.dtype)
        return Vec(np.concatenate((self.values, filler)), np.append(self.null, np.int8(code)))


TAGS = (None, UNKNOWN, NOT_APPLICABLE)  # by null code; 0: the row holds a value
NO_TAGS = (None, None, None)  # a null of either code boxed as None
_CODES = {None: 1, UNKNOWN: 1, NOT_APPLICABLE: 2}  # a bare None reads as unknown
_DTYPES = {"numeric": np.float64, "boolean": np.bool_, "date": np.int64}  # else object
_FILLERS = {"f": math.nan, "b": False, "i": 1}  # by dtype kind; else ""


def pack(cells: Sequence, kind: str) -> Vec:
    """A column of boxed cells (None or a tag for a null) as a Vec of the kind."""
    null = np.fromiter(map(_CODES.get, cells, repeat(0)), np.int8, len(cells))
    dtype = np.dtype(_DTYPES.get(kind, object))
    known = [_FILLERS.get(dtype.kind, "") if c else v.toordinal() if kind == "date" else v
             for v, c in zip(cells, null.tolist())]
    return Vec(np.array(known, dtype=dtype), null)


def box(vec: Vec, tags: Sequence = TAGS) -> list:
    """The column's cells as Python objects: ``float``, ``bool``,
    ``datetime.date`` or ``str``, and ``tags[code]`` for a null."""
    if vec.values.dtype == np.int64:
        cells = list(map(_dt.date.fromordinal, np.where(vec.null == 0, vec.values, 1).tolist()))
    else:
        cells = vec.values.tolist()
    nulls = np.flatnonzero(vec.null)
    for i, code in zip(nulls.tolist(), vec.null[nulls].tolist()):
        cells[i] = tags[code]
    return cells


def factorize(vec: Vec) -> tuple[list, np.ndarray]:
    """The sorted distinct values of the column's known rows, and each row's
    position among them, -1 for a null row. Each cell is hashed once and
    only the distinct values are sorted."""
    distinct = sorted(set(vec.values[vec.null == 0].tolist()))
    position = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(position.get, vec.values.tolist(), repeat(-1)), np.int64, len(vec))
    codes[vec.null != 0] = -1
    return distinct, codes


_BOOLEAN_CODES = {"false": 0, "true": 1, "": 2}


def parse_column(fields: Sequence[str], kind: str, parsed: Optional[dict[str, object]] = None
                 ) -> tuple[Vec, list[tuple[int, str]]]:
    """``parse_cell`` over one column's fields, dispatched once on the kind:
    the column as a Vec (an empty field is unknown), and the position and
    message of each malformed field (its row is unknown too). Dates, and a
    column holding a malformed field, are parsed once per distinct field;
    ``parsed`` maps each field parsed so far to its cell (a date's to its
    day ordinal, 0 for an empty field) and is filled here, so a column read
    in chunks that passes the same dict to each call parses each distinct
    date once."""
    n = len(fields)
    if kind == "numeric":
        try:
            values = np.fromiter(map(float, [t or "nan" for t in fields]), float, n)
            null = np.isnan(values)
            # every nan an empty field, and no infinity
            if not (any(fields[i] for i in np.flatnonzero(null).tolist()) or np.isinf(values).any()):
                return Vec(values, null.view(np.int8)), []
        except ValueError:
            pass
    elif kind == "boolean":
        try:
            codes = np.fromiter(map(_BOOLEAN_CODES.__getitem__, fields), np.int8, n)
            return Vec(codes == 1, (codes == 2).view(np.int8)), []
        except KeyError:
            pass
    elif kind != "date":
        values = np.array(fields, dtype=object)
        return Vec(values, (values == "").view(np.int8)), []
    if parsed is None:
        parsed = {}
    errors: dict[str, str] = {}
    for t in set(fields).difference(parsed):
        try:
            cell = parse_cell(t, kind)
            parsed[t] = (0 if cell is None else cell.toordinal()) if kind == "date" else cell
        except ValueError as err:
            errors[t] = str(err)
    bad = [(i, errors[t]) for i, t in enumerate(fields) if t in errors] if errors else []
    if kind != "date":
        return pack([parsed.get(t) for t in fields], kind), bad
    days = np.fromiter(map(parsed.get, fields, repeat(0)), np.int64, n)
    null = days == 0
    return Vec(np.where(null, 1, days), null.view(np.int8)), bad
