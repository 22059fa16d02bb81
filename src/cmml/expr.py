"""Expression language for derived attributes, applicability predicates and
subtype membership predicates.

Grammar (lowest to highest precedence):

    or_expr    := and_expr ("or" and_expr)*
    and_expr   := cmp_expr ("and" cmp_expr)*
    cmp_expr   := add_expr (("<"|"<="|"="|"!="|">="|">") add_expr)?
    add_expr   := mul_expr (("+"|"-") mul_expr)*
    mul_expr   := unary (("*"|"/") unary)*
    unary      := "-" unary | primary
    primary    := NUMBER | STRING | "true" | "false" | IDENT
                | AGG "(" IDENT ["." IDENT] ")"
                | FN "(" args ")" | "(" or_expr ")"

`#` starts a comment that runs to the end of the line.

Aggregate heads are count/sum/mean/min/max over RELATIONSHIP.attribute
(count takes the bare relationship). Plain functions are years_between,
days_between, today, abs, if. String literals shaped YYYY-MM-DD parse as
date literals.

``eval_column`` is the one evaluator the program runs: it evaluates an
expression once over all rows of an entity, one numpy operation per node,
and its aggregates are ``group_reduce``, the grouped kernel the engine's G4
summaries also use. It reads the tables' ``values.Vec`` columns as they are
stored and returns a ``Vec``, so no cell is boxed on the way in or out;
it takes no typing environment, since the vectors carry their kinds.
``eval_expr`` (one row) and ``aggregate`` (one group of cells) define the
same semantics cell by cell; they are the reference the tests compare the
column evaluator against.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .values import DATE_RE, UNKNOWN, Null, Vec, format_float, is_null, parse_date

AGG_KINDS = ("count", "sum", "mean", "min", "max")
FN_NAMES = ("years_between", "days_between", "today", "abs", "if")
CMP_OPS = ("<", "<=", "=", "!=", ">=", ">")
DAYS_PER_YEAR = 365.2425


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ExprTypeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # float | str | bool | datetime.date


@dataclass(frozen=True)
class AttrRef(Expr):
    name: str


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # only "-"
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class Aggregate(Expr):
    kind: str  # count | sum | mean | min | max
    relationship: str
    attribute: Optional[str] = None  # None only for count


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<op><=|>=|!=|[{}:<>=+\-*/(),.])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    """Tokens up to a final ``eof``; whitespace and comments are dropped. A
    character that starts no token becomes a ``bad`` token for the caller to
    report, so lexing never stops early."""
    toks: list[_Tok] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        lexeme = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            toks.append(_Tok(m.lastgroup, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise ExprSyntaxError(f"expected {text!r}, got {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def parse(self) -> Expr:
        e = self.or_expr()
        t = self.peek()
        if t.kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        return e

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.peek().text == "or":
            self.next()
            e = Binary("or", e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.cmp_expr()
        while self.peek().text == "and":
            self.next()
            e = Binary("and", e, self.cmp_expr())
        return e

    def cmp_expr(self) -> Expr:
        e = self.add_expr()
        if self.peek().text in CMP_OPS:
            op = self.next().text
            e = Binary(op, e, self.add_expr())
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = Binary(op, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Unary("-", self.unary())
        return self.primary()

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            v = float(t.text)
            if not math.isfinite(v):
                raise ExprSyntaxError(f"number {t.text} is not finite", t.line, t.col)
            return Literal(v)
        if t.kind == "string":
            self.next()
            body = t.text[1:-1]
            if DATE_RE.fullmatch(body):
                try:
                    return Literal(parse_date(body))
                except ValueError:
                    raise ExprSyntaxError(f"bad date literal {body!r}", t.line, t.col)
            return Literal(body)
        if t.text == "(":
            self.next()
            e = self.or_expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            self.next()
            if t.text == "true":
                return Literal(True)
            if t.text == "false":
                return Literal(False)
            if self.peek().text == "(":
                return self._call_or_agg(t)
            return AttrRef(t.text)
        raise ExprSyntaxError(f"expected expression, got {t.text or 'end of input'!r}", t.line, t.col)

    def _call_or_agg(self, head: _Tok) -> Expr:
        self.expect("(")
        if head.text in AGG_KINDS:
            rel = self.peek()
            if rel.kind != "ident":
                raise ExprSyntaxError(
                    f"{head.text}(...) takes RELATIONSHIP or RELATIONSHIP.attribute", rel.line, rel.col
                )
            self.next()
            attr = None
            if self.peek().text == ".":
                self.next()
                a = self.peek()
                if a.kind != "ident":
                    raise ExprSyntaxError("expected attribute name after '.'", a.line, a.col)
                self.next()
                attr = a.text
            self.expect(")")
            if head.text == "count":
                if attr is not None:
                    raise ExprSyntaxError("count(...) takes a bare relationship", head.line, head.col)
            elif attr is None:
                raise ExprSyntaxError(f"{head.text}(...) requires RELATIONSHIP.attribute", head.line, head.col)
            return Aggregate(head.text, rel.text, attr)
        if head.text in FN_NAMES:
            args: list[Expr] = []
            if self.peek().text != ")":
                args.append(self.or_expr())
                while self.peek().text == ",":
                    self.next()
                    args.append(self.or_expr())
            self.expect(")")
            return Call(head.text, tuple(args))
        raise ExprSyntaxError(f"unknown function {head.text!r}", head.line, head.col)


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError with line/column on failure."""
    toks = _tokenize(text)
    for t in toks:
        if t.kind == "bad":
            raise ExprSyntaxError(f"unexpected character {t.text!r}", t.line, t.col)
    return _Parser(toks).parse()


# ---------------------------------------------------------------------------
# Pretty printer

_PRECEDENCE = {"or": 1, "and": 2, "<": 3, "<=": 3, "=": 3, "!=": 3, ">=": 3, ">": 3,
               "+": 4, "-": 4, "*": 5, "/": 5}


def pretty_print(expr: Expr) -> str:
    return _pp(expr, 0)


def _pp(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Literal):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        if isinstance(v, _dt.date):
            return f'"{v.isoformat()}"'
        return f'"{v}"'
    if isinstance(e, AttrRef):
        return e.name
    if isinstance(e, Unary):
        return "-" + _pp(e.operand, 6)
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_pp(a, 0) for a in e.args)})"
    if isinstance(e, Aggregate):
        inner = e.relationship if e.attribute is None else f"{e.relationship}.{e.attribute}"
        return f"{e.kind}({inner})"
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        # left-associative: right child needs parens at equal precedence
        s = f"{_pp(e.lhs, prec)} {e.op} {_pp(e.rhs, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Type checking


@dataclass
class TypeEnv:
    """Attribute kinds of the owning entity plus, per reachable relationship,
    the attribute kinds of the related entity (for aggregates)."""

    attrs: dict[str, str]
    rels: dict[str, dict[str, str]] = field(default_factory=dict)


_EQ_KINDS = {"nominal", "text", "identifier", "string"}


def type_of(expr: Expr, env: TypeEnv) -> str:
    """Static kind of the expression: one of the attribute kinds or 'boolean'.

    Raises ExprTypeError naming the offending subexpression.
    """
    if isinstance(expr, Literal):
        v = expr.value
        if isinstance(v, bool):
            return "boolean"
        if isinstance(v, float):
            return "numeric"
        if isinstance(v, _dt.date):
            return "date"
        return "string"
    if isinstance(expr, AttrRef):
        kind = env.attrs.get(expr.name)
        if kind is None:
            raise ExprTypeError(f"unknown attribute {expr.name!r}")
        return kind
    if isinstance(expr, Unary):
        k = type_of(expr.operand, env)
        if k != "numeric":
            raise ExprTypeError(f"unary '-' needs a numeric operand, got {k} in {pretty_print(expr)!r}")
        return "numeric"
    if isinstance(expr, Binary):
        lk = type_of(expr.lhs, env)
        rk = type_of(expr.rhs, env)
        op = expr.op
        if op in ("and", "or"):
            if lk != "boolean" or rk != "boolean":
                raise ExprTypeError(f"'{op}' needs boolean operands in {pretty_print(expr)!r}")
            return "boolean"
        if op in ("+", "-", "*", "/"):
            if lk != "numeric" or rk != "numeric":
                raise ExprTypeError(f"'{op}' needs numeric operands in {pretty_print(expr)!r}")
            return "numeric"
        # comparisons
        if op in ("=", "!="):
            same = lk == rk or (lk in _EQ_KINDS and rk in _EQ_KINDS)
            if not same:
                raise ExprTypeError(f"'{op}' over mismatched kinds {lk}/{rk} in {pretty_print(expr)!r}")
            return "boolean"
        if lk not in ("numeric", "date") or rk != lk:
            raise ExprTypeError(f"'{op}' needs two numerics or two dates in {pretty_print(expr)!r}")
        return "boolean"
    if isinstance(expr, Call):
        return _type_of_call(expr, env)
    if isinstance(expr, Aggregate):
        rel_attrs = env.rels.get(expr.relationship)
        if rel_attrs is None:
            raise ExprTypeError(f"unknown relationship {expr.relationship!r} in {pretty_print(expr)!r}")
        if expr.kind == "count":
            return "numeric"
        kind = rel_attrs.get(expr.attribute)
        if kind is None:
            raise ExprTypeError(
                f"unknown attribute {expr.attribute!r} on relationship {expr.relationship!r}"
            )
        if kind == "date":
            if expr.kind in ("min", "max"):
                return "date"
            raise ExprTypeError(f"{expr.kind} over a date attribute in {pretty_print(expr)!r}")
        if kind != "numeric":
            raise ExprTypeError(f"{expr.kind} needs a numeric or date attribute, got {kind}")
        return "numeric"
    raise TypeError(f"not an Expr: {expr!r}")


def _type_of_call(expr: Call, env: TypeEnv) -> str:
    fn, args = expr.fn, expr.args

    def arity(n: int):
        if len(args) != n:
            raise ExprTypeError(f"{fn} takes {n} argument(s), got {len(args)}")

    if fn == "today":
        arity(0)
        return "date"
    if fn in ("years_between", "days_between"):
        arity(2)
        for a in args:
            if type_of(a, env) != "date":
                raise ExprTypeError(f"{fn} needs date arguments in {pretty_print(expr)!r}")
        return "numeric"
    if fn == "abs":
        arity(1)
        if type_of(args[0], env) != "numeric":
            raise ExprTypeError(f"abs needs a numeric argument in {pretty_print(expr)!r}")
        return "numeric"
    if fn == "if":
        arity(3)
        if type_of(args[0], env) != "boolean":
            raise ExprTypeError(f"if condition must be boolean in {pretty_print(expr)!r}")
        tk = type_of(args[1], env)
        fk = type_of(args[2], env)
        if tk != fk:
            raise ExprTypeError(f"if branches disagree ({tk} vs {fk}) in {pretty_print(expr)!r}")
        return tk
    raise ExprTypeError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# Evaluation

RelatedCells = Callable[[str, Optional[str]], Sequence]  # (relationship, attribute) -> cells


def aggregate(kind: str, cells: Sequence):
    """count/sum/mean/min/max of one group of cells, summed in their order.
    count counts every cell; the others skip both null tags. sum of no known
    cell is 0.0; mean, min and max of none are UNKNOWN."""
    if kind == "count":
        return float(len(cells))
    return reduce_known(kind, known_cells(cells))


def known_cells(cells: Iterable) -> list:
    """The cells that hold a value: both null tags dropped, order kept."""
    # is_null, inlined: this runs once per cell of every group
    return [v for v in cells if v is not None and not isinstance(v, Null)]


def left_sum(values: Iterable) -> float:
    """The sum of ``values`` added left to right, one rounding per addition:
    the bits ``sum()`` gave before Python 3.12 compensated float sums, so
    outputs do not depend on the Python that computes them."""
    total = 0
    for v in values:
        total += v
    return float(total)


def reduce_known(kind: str, known: list):
    """``aggregate`` of a group whose null cells are already dropped
    (``known_cells``), for every kind but count."""
    if kind == "sum":
        return left_sum(known)
    if not known:
        return UNKNOWN
    if kind == "mean":
        return left_sum(known) / len(known)
    if kind == "min":
        return min(known)
    if kind == "max":
        return max(known)
    raise ValueError(f"bad aggregate {kind!r}")


def eval_expr(
    expr: Expr,
    row: dict,
    related: Optional[RelatedCells] = None,
    clock: Optional[_dt.date] = None,
    diagnostics: Optional[list[str]] = None,
):
    """Evaluate a type-checked expression over one row.

    Nulls propagate strictly (any null operand yields UNKNOWN), except in
    aggregates, which follow ``aggregate``. Division by zero yields UNKNOWN
    plus a diagnostic. Pure given (row, related, clock).
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AttrRef):
        v = row.get(expr.name)
        return UNKNOWN if v is None else v
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand, row, related, clock, diagnostics)
        return v if is_null(v) else -v
    if isinstance(expr, Binary):
        return _eval_binary(expr, row, related, clock, diagnostics)
    if isinstance(expr, Call):
        return _eval_call(expr, row, related, clock, diagnostics)
    if isinstance(expr, Aggregate):
        if related is None:
            raise ValueError(f"aggregate {pretty_print(expr)!r} requires a related-cells provider")
        return aggregate(expr.kind, related(expr.relationship, expr.attribute))
    raise TypeError(f"not an Expr: {expr!r}")


def _eval_binary(expr: Binary, row, related, clock, diagnostics):
    lhs = eval_expr(expr.lhs, row, related, clock, diagnostics)
    rhs = eval_expr(expr.rhs, row, related, clock, diagnostics)
    if is_null(lhs) or is_null(rhs):
        return UNKNOWN
    op = expr.op
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            if diagnostics is not None:
                diagnostics.append(f"division by zero in {pretty_print(expr)!r}")
            return UNKNOWN
        return lhs / rhs
    if op == "and":
        return lhs and rhs
    if op == "or":
        return lhs or rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == ">=":
        return lhs >= rhs
    if op == ">":
        return lhs > rhs
    raise ValueError(f"bad operator {op!r}")


def _eval_call(expr: Call, row, related, clock, diagnostics):
    fn = expr.fn
    if fn == "today":
        if clock is None:
            raise ValueError("today() requires an injected clock date")
        return clock
    vals = [eval_expr(a, row, related, clock, diagnostics) for a in expr.args]
    if fn == "if":
        cond = vals[0]
        if is_null(cond):
            return UNKNOWN
        return vals[1] if cond else vals[2]
    if any(is_null(v) for v in vals):
        return UNKNOWN
    if fn == "years_between":
        return float(math.floor((vals[1] - vals[0]).days / DAYS_PER_YEAR))
    if fn == "days_between":
        return float((vals[1] - vals[0]).days)
    if fn == "abs":
        return abs(vals[0])
    raise ValueError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# Grouped kernels: one relationship's aggregates for all parents at once


class Groups:
    """One relationship's partner index in CSR form: the partner rows of
    parent row ``p`` are ``rows[offsets[p]:offsets[p + 1]]``. ``gid`` is the
    parent row of each entry of ``rows``. Do not mutate the arrays."""

    def __init__(self, rows: np.ndarray, sizes: np.ndarray):
        self.rows = rows
        self.sizes = sizes
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.gid = np.repeat(np.arange(len(sizes)), sizes)

    def __len__(self) -> int:  # parent rows
        return len(self.sizes)

    def split(self, cells) -> list[list]:
        """Each parent row's partner cells, ``cells`` indexed by child row."""
        flat = list(map(cells.__getitem__, self.rows.tolist()))
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def group_reduce(kinds: Sequence[str], v: np.ndarray, groups: Groups) -> list[np.ndarray]:
    """``aggregate(kind, ·)`` of each parent's partners for each kind of
    sum, mean, min and max: ``v`` holds each child row's value as a float
    (a numeric ``Vec``'s values, or a date's day ordinals), nan for a null;
    each result is one float per parent, nan where a mean, min or max has no
    known value. Cells are finite, so a sum overflows to ±inf, never to nan."""
    v = v[groups.rows]
    known = ~np.isnan(v)
    gid, v = groups.gid[known], v[known]
    n = np.bincount(gid, minlength=len(groups))
    # bincount adds each group's cells in order, one rounding per addition:
    # left_sum's bits (np.sum adds pairwise and would change the last bits)
    # (an int array when there is no weight at all)
    total = (np.bincount(gid, weights=v, minlength=len(groups)).astype(float, copy=False)
             if "sum" in kinds or "mean" in kinds else None)
    out = []
    for kind in kinds:
        if kind == "sum":
            out.append(total)
        elif kind == "mean":
            out.append(np.where(n > 0, total / np.maximum(n, 1), math.nan))
        elif kind in ("min", "max"):
            out.append(_extremes(np.minimum if kind == "min" else np.maximum, v, gid, n))
        else:
            raise ValueError(f"bad aggregate {kind!r}")
    return out


def day_floats(vec: Vec) -> np.ndarray:
    """A date column's day ordinals as floats, nan for a null:
    ``group_reduce``'s input for a date."""
    return np.where(vec.null == 0, vec.values, math.nan)


def _extremes(ufunc: np.ufunc, v: np.ndarray, gid: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.minimum`` or ``np.maximum`` over each group's values (``v`` in
    group order, ``n`` per group); nan where a group is empty. Python's min
    and max keep the first of equal values, so a group whose extreme is zero
    takes the sign of its first zero."""
    out = np.full(len(n), math.nan)
    present = n > 0
    if not v.size:
        return out
    out[present] = ufunc.reduceat(v, (np.cumsum(n) - n)[present])
    zero = v == 0
    zero_groups, first = np.unique(gid[zero], return_index=True)
    tied = out[zero_groups] == 0
    out[zero_groups[tied]] = v[zero][first[tied]]
    return out


# ---------------------------------------------------------------------------
# Column evaluation: each node once over all rows of an entity

RelatedColumns = Mapping[tuple[str, Optional[str]], tuple[Optional[Vec], Groups]]

_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "and": np.logical_and, "or": np.logical_or,
        "<": np.less, "<=": np.less_equal, "=": np.equal, "!=": np.not_equal,
        ">=": np.greater_equal, ">": np.greater}


def eval_column(expr: Expr, rows: int, columns: Mapping[str, Vec],
                related: RelatedColumns, clock: Optional[_dt.date]) -> tuple[Vec, list[str]]:
    """Evaluate a type-checked expression over all ``rows`` rows of an
    entity: each row's boxed cell equals ``eval_expr`` on that row, and the
    diagnostics are the sorted, distinct ones ``eval_expr`` gives over all
    rows. ``columns`` holds the ``Vec`` of each attribute the expression
    reads; ``related``, per aggregate's (relationship, attribute), the
    child's ``Vec`` (None for count; a date's is int64) and the
    relationship's ``Groups``. A numeric result that is not finite (an
    overflow) becomes unknown, counted in a diagnostic; a numeric null row
    holds nan."""
    diags: set[str] = set()
    with np.errstate(all="ignore"):
        vec = _Columns(rows, columns, related, clock, diags).eval(expr)
        if vec.values.dtype == float:
            bad = (vec.null == 0) & ~np.isfinite(vec.values)
            if bad.any():
                diags.add(f"{int(np.count_nonzero(bad))} non-finite value(s) set to unknown")
            null = np.where(bad, np.int8(1), vec.null)
            vec = Vec(np.where(null == 0, vec.values, math.nan), null)
    return vec, sorted(diags)


class _Columns:
    """``eval_column``'s walk: one vector per node, null codes propagated as
    ``eval_expr`` propagates nulls."""

    def __init__(self, rows: int, columns: Mapping[str, Vec],
                 related: RelatedColumns, clock: Optional[_dt.date], diags: set[str]):
        self.rows = rows
        self.columns = columns
        self.related = related
        self.clock = clock
        self.diags = diags

    def eval(self, e: Expr) -> Vec:
        if isinstance(e, Literal):
            return self._constant(e.value)
        if isinstance(e, AttrRef):
            return self.columns[e.name]
        if isinstance(e, Unary):
            v = self.eval(e.operand)
            return Vec(-v.values, v.null)  # keeps the operand's tag
        if isinstance(e, Binary):
            return self._binary(e)
        if isinstance(e, Call):
            return self._call(e)
        if isinstance(e, Aggregate):
            return self._aggregate(e)
        raise TypeError(f"not an Expr: {e!r}")

    def _constant(self, v) -> Vec:
        if isinstance(v, _dt.date):
            values = np.full(self.rows, v.toordinal(), dtype=np.int64)
        else:
            values = np.full(self.rows, v, dtype=bool if isinstance(v, bool)
                             else float if isinstance(v, float) else object)
        return Vec(values, np.zeros(self.rows, dtype=np.int8))

    def _binary(self, e: Binary) -> Vec:
        lhs, rhs = self.eval(e.lhs), self.eval(e.rhs)
        null = ((lhs.null != 0) | (rhs.null != 0)).astype(np.int8)  # any null: UNKNOWN
        if e.op == "/":
            zero = (rhs.values == 0) & (null == 0)
            if zero.any():
                self.diags.add(f"division by zero in {pretty_print(e)!r}")
                null[zero] = 1
        return Vec(_OPS[e.op](lhs.values, rhs.values), null)

    def _call(self, e: Call) -> Vec:
        if e.fn == "today":
            if self.clock is None:
                raise ValueError("today() requires an injected clock date")
            return self._constant(self.clock)
        args = [self.eval(a) for a in e.args]  # every argument, as eval_expr does
        if e.fn == "if":
            cond, then, other = args
            chosen = np.where(cond.values, then.null, other.null)
            return Vec(np.where(cond.values, then.values, other.values),
                        np.where(cond.null != 0, np.int8(1), chosen).astype(np.int8))
        null = np.zeros(self.rows, dtype=bool)
        for a in args:
            null |= a.null != 0
        if e.fn == "years_between":
            values = np.floor((args[1].values - args[0].values) / DAYS_PER_YEAR)
        elif e.fn == "days_between":
            values = (args[1].values - args[0].values).astype(float)
        elif e.fn == "abs":
            values = np.abs(args[0].values)
        else:
            raise ValueError(f"unknown function {e.fn!r}")
        return Vec(values, null.astype(np.int8))

    def _aggregate(self, e: Aggregate) -> Vec:
        if (e.relationship, e.attribute) not in self.related:
            raise ValueError(f"aggregate {pretty_print(e)!r} requires its related cells")
        child, groups = self.related[e.relationship, e.attribute]
        if e.kind == "count":
            return Vec(groups.sizes.astype(float), np.zeros(len(groups), dtype=np.int8))
        date = child.values.dtype == np.int64  # day ordinals
        values, = group_reduce((e.kind,), day_floats(child) if date else child.values, groups)
        null = np.isnan(values)
        if date:
            values = np.where(null, 1, values).astype(np.int64)
        return Vec(values, null.astype(np.int8))


def _nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of the expression tree (an aggregate is a leaf)."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Binary):
            stack.extend((e.lhs, e.rhs))
        elif isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Call):
            stack.extend(e.args)


def referenced_attrs(expr: Expr) -> set[str]:
    """Names of same-entity attributes the expression reads directly
    (aggregate targets live on related entities and are excluded)."""
    return {e.name for e in _nodes(expr) if isinstance(e, AttrRef)}


def referenced_aggregates(expr: Expr) -> list[Aggregate]:
    return [e for e in _nodes(expr) if isinstance(e, Aggregate)]
