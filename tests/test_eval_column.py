"""Differential tests of the column evaluator against the one-row reference.

``expr.eval_column`` evaluates an expression once over all rows of an
entity; ``expr.eval_expr`` evaluates it on one row and is the reference.
Each cell must have the reference's ``repr`` and exact type, and the sorted,
distinct diagnostics must be the reference's over all rows, plus the count
of non-finite results the column evaluator sets to unknown. The reference
cases are random expressions reaching every node kind, every derivation of
the generated property-test schemas, and the binder's predicates.
"""

import datetime as dt
import math
import random

import numpy as np
import pytest

from cmml import binder, engine
from cmml import expr as ex
from cmml.tabular import Column, DataBundle, Table
from cmml.values import NOT_APPLICABLE, UNKNOWN, Vec, box, pack
from conftest import CLOCK, column, parse_full
from propgen import Case


def reference(e, rows, columns, related, clock):
    """``eval_expr`` on each row, then each non-finite number set to
    unknown and counted, as the column evaluator does."""
    partners = {key: groups.split(cells) if cells is not None
                else [[None] * n for n in groups.sizes.tolist()]
                for key, (cells, groups) in related.items()}
    diags, cells = [], []
    for r in range(rows):
        row = {name: column[r] for name, column in columns.items()}
        cells.append(ex.eval_expr(e, row, lambda rel, attr: partners[rel, attr][r], clock, diags))
    bad = [i for i, v in enumerate(cells) if isinstance(v, float) and not math.isfinite(v)]
    for i in bad:
        cells[i] = UNKNOWN
    if bad:
        diags.append(f"{len(bad)} non-finite value(s) set to unknown")
    return cells, sorted(set(diags))


def _vec(cells, kind):
    """A column given as a ``Vec`` or as boxed cells, as a ``Vec``."""
    return cells if isinstance(cells, Vec) else pack(cells, kind)


def _boxed(cells):
    """A column given as a ``Vec`` or as boxed cells, as boxed cells."""
    return box(cells) if isinstance(cells, Vec) else cells


def check(e, env, rows, columns, related=None, clock=CLOCK):
    """The column evaluator's boxed cells and diagnostics, asserted equal to
    the reference's cell by cell (``repr`` and exact type). A column, or an
    aggregate's child column, is a ``Vec`` or a list of boxed cells."""
    related = related or {}
    got, got_diags = ex.eval_column(
        e, env, rows, {name: _vec(c, env.attrs[name]) for name, c in columns.items()},
        {key: (None if c is None else _vec(c, env.rels[key[0]][key[1]]), groups)
         for key, (c, groups) in related.items()}, clock)
    got = box(got)
    want, want_diags = reference(
        e, rows, {name: _boxed(c) for name, c in columns.items()},
        {key: (None if c is None else _boxed(c), groups) for key, (c, groups) in related.items()},
        clock)
    assert [repr(v) for v in got] == [repr(v) for v in want], ex.pretty_print(e)
    assert [type(v) for v in got] == [type(v) for v in want], ex.pretty_print(e)
    assert got_diags == want_diags, ex.pretty_print(e)
    return got, got_diags


def one_group(cells):
    """One parent whose partners are all of ``cells``, in order."""
    return cells, ex.Groups(np.arange(len(cells)), np.array([len(cells)]))


# ---------------------------------------------------------------------------
# The semantics most likely to break


ENV = ex.TypeEnv(
    attrs={"x": "numeric", "y": "numeric", "b": "boolean", "d": "date", "e": "date",
           "s": "nominal", "w": "text"},
    rels={"R": {"c": "numeric", "cd": "date"}},
)


def col(text, rows, **columns):
    return check(ex.parse_expr(text), ENV, rows, columns)


def test_unary_minus_and_a_bare_ref_keep_the_null_tag():
    cells, _ = col("-x", 3, x=[NOT_APPLICABLE, UNKNOWN, 2.0])
    assert cells == [NOT_APPLICABLE, UNKNOWN, -2.0] and cells[0] is NOT_APPLICABLE
    cells, _ = col("x", 2, x=[NOT_APPLICABLE, None])
    assert cells[0] is NOT_APPLICABLE and cells[1] is UNKNOWN


def test_a_binary_operator_turns_any_null_into_unknown():
    cells, _ = col("x + y", 3, x=[NOT_APPLICABLE, 1.0, None], y=[1.0, NOT_APPLICABLE, 1.0])
    assert all(v is UNKNOWN for v in cells)
    cells, _ = col("x < y", 1, x=[NOT_APPLICABLE], y=[NOT_APPLICABLE])
    assert cells[0] is UNKNOWN


def test_if_returns_the_chosen_branch_cell_with_its_tag():
    cells, _ = col("if(b, x, y)", 4, b=[True, False, UNKNOWN, True],
                   x=[NOT_APPLICABLE, 1.0, 1.0, 5.0], y=[2.0, UNKNOWN, 3.0, 4.0])
    assert cells[0] is NOT_APPLICABLE and cells[1] is UNKNOWN
    assert cells[2] is UNKNOWN and cells[3] == 5.0


def test_if_evaluates_both_branches_so_the_untaken_division_is_reported():
    cells, diags = col("if(x > 0, x, x / 0)", 2, x=[1.0, 2.0])
    assert cells == [1.0, 2.0]
    assert diags == ["division by zero in 'x / 0'"]


def test_division_by_zero_and_signed_zero_divisor():
    cells, diags = col("x / y", 3, x=[1.0, 1.0, 1.0], y=[0.0, -0.0, 4.0])
    assert cells == [UNKNOWN, UNKNOWN, 0.25]
    assert diags == ["division by zero in 'x / y'"]
    # a null divisor is null first: no diagnostic
    assert col("x / y", 1, x=[1.0], y=[UNKNOWN])[1] == []


def test_an_overflow_becomes_unknown_and_is_counted():
    cells, diags = col("x * 1e308", 3, x=[10.0, 1.0, -10.0])
    assert cells == [UNKNOWN, 1e308, UNKNOWN]
    assert diags == ["2 non-finite value(s) set to unknown"]
    # an intermediate overflow only counts where it reaches the result
    cells, diags = col("x * 1e308 > 0", 1, x=[10.0])
    assert cells == [True] and diags == []


def test_extremes_keep_the_first_zeros_sign():
    e = ex.parse_expr("min(R.c)")
    for zeros in ([0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, 2.0]):
        cells, _ = check(e, ENV, 1, {}, {("R", "c"): one_group(zeros)})
        assert repr(cells[0]) == repr(min(zeros))
    cells, _ = check(ex.parse_expr("max(R.c)"), ENV, 1, {},
                     {("R", "c"): one_group([-1.0, -0.0, 0.0])})
    assert repr(cells[0]) == "-0.0"


def test_date_extremes_of_an_empty_or_null_group_are_unknown():
    groups = ex.Groups(np.array([0, 1, 2]), np.array([0, 2, 1]))
    dates = [dt.date(2020, 5, 1), dt.date(2019, 1, 2), UNKNOWN]
    for kind in ("min", "max"):
        cells, _ = check(ex.parse_expr(f"{kind}(R.cd)"), ENV, 3, {}, {("R", "cd"): (dates, groups)})
        assert cells[0] is UNKNOWN and cells[2] is UNKNOWN
        assert type(cells[1]) is dt.date


def test_aggregates_skip_null_partners_and_count_all():
    groups = ex.Groups(np.array([2, 0, 1, 3]), np.array([3, 0, 1]))
    cells = [1.5, UNKNOWN, NOT_APPLICABLE, 4.0]
    for kind in ("sum", "mean", "min", "max"):
        got, _ = check(ex.parse_expr(f"{kind}(R.c)"), ENV, 3, {}, {("R", "c"): (cells, groups)})
        assert got[1] == 0.0 if kind == "sum" else got[1] is UNKNOWN
    got, _ = check(ex.parse_expr("count(R)"), ENV, 3, {}, {("R", None): (None, groups)})
    assert got == [3.0, 0.0, 1.0]


def test_cells_keep_exact_python_types():
    cells, _ = col("x + 1", 1, x=[1.0])
    assert type(cells[0]) is float
    cells, _ = col("x > 1", 1, x=[2.0])
    assert type(cells[0]) is bool
    cells, _ = col("if(b, d, today())", 2, b=[True, False], d=[dt.date(2001, 2, 3), UNKNOWN])
    assert [type(v) for v in cells] == [dt.date, dt.date] and cells[1] == CLOCK
    cells, _ = col('if(b, s, s) = "a"', 1, b=[True], s=["a"])
    assert cells == [True] and type(cells[0]) is bool


def test_none_in_an_untagged_column_reads_as_unknown():
    cells, _ = col("x > 1", 3, x=[None, 2.0, 0.0])
    assert cells == [UNKNOWN, True, False]
    cells, _ = col('s = "a" or b', 2, s=[None, "a"], b=[True, None])
    assert cells == [UNKNOWN, UNKNOWN]


def test_applicable_when_reads_none_as_unknown_in_the_binder():
    schema = parse_full("""
entity E {
  key id: identifier
  attr t: numeric
  attr employed: boolean
  attr salary: numeric optional applicable_when (employed = true)
}
task T { target E.t }
""")
    table = Table("E", [Column(n, k) for n, k in
                        (("id", "identifier"), ("t", "numeric"), ("employed", "boolean"),
                         ("salary", "numeric"))],
                  [["a", 1.0, True, None], ["b", 2.0, False, None], ["c", 3.0, None, None]],
                  key_columns=["id"])
    bundle = DataBundle()
    bundle.add(table)
    bound = binder.bind(schema, bundle, CLOCK)
    assert column(bound.bundle.table("E"), "salary") == [UNKNOWN, NOT_APPLICABLE, UNKNOWN]
    assert [d.code for d in bound.report.diagnostics] == ["applicability-null"]


def test_today_needs_a_clock():
    with pytest.raises(ValueError):
        ex.eval_column(ex.parse_expr("today()"), ENV, 1, {}, {}, None)


def test_an_empty_entity_gives_no_cells_and_no_diagnostics():
    cells, diags = ex.eval_column(ex.parse_expr("1 / 0"), ENV, 0, {}, {}, CLOCK)
    assert (box(cells), diags) == ([], [])


# ---------------------------------------------------------------------------
# Random expressions over every node kind

NUMBERS = (0.0, -0.0, 1.0, -1.0, 2.5, 3.0, -7.25, 1e308, -1e308, 1e-300)
NULLS = (UNKNOWN, NOT_APPLICABLE, None)
DATES = (dt.date(1990, 1, 1), dt.date(2019, 6, 1), dt.date(2019, 6, 2), dt.date(2000, 2, 29))
WORDS = ("a", "b", "c")
CMP = ("<", "<=", "=", "!=", ">=", ">")


def _pick(rng, pool):
    return rng.choice(NULLS) if rng.random() < 0.2 else rng.choice(pool)


def _numeric(rng, depth, seen):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        leaf = rng.randrange(4)
        if leaf == 0:
            seen.add("literal")
            return ex.Literal(rng.choice(NUMBERS[:8] + (1e308,)))
        if leaf == 1:
            seen.add("attr")
            return ex.AttrRef(rng.choice("xy"))
        kind = rng.choice(ex.AGG_KINDS)
        seen.add(f"agg {kind}")
        return ex.Aggregate(kind, "R", None if kind == "count" else "c")
    form = rng.randrange(6)
    if form == 0:
        seen.add("unary -")
        return ex.Unary("-", _numeric(rng, depth - 1, seen))
    if form in (1, 2):
        op = rng.choice("+-*/")
        seen.add(op)
        return ex.Binary(op, _numeric(rng, depth - 1, seen), _numeric(rng, depth - 1, seen))
    if form == 3:
        seen.add("abs")
        return ex.Call("abs", (_numeric(rng, depth - 1, seen),))
    if form == 4:
        fn = rng.choice(("years_between", "days_between"))
        seen.add(fn)
        return ex.Call(fn, (_date(rng, depth - 1, seen), _date(rng, depth - 1, seen)))
    seen.add("if")
    return ex.Call("if", (_boolean(rng, depth - 1, seen), _numeric(rng, depth - 1, seen),
                          _numeric(rng, depth - 1, seen)))


def _date(rng, depth, seen):
    r = rng.randrange(5 if depth > 0 else 4)
    if r == 0:
        seen.add("date literal")
        return ex.Literal(rng.choice(DATES))
    if r == 1:
        seen.add("date attr")
        return ex.AttrRef(rng.choice("de"))
    if r == 2:
        seen.add("today")
        return ex.Call("today", ())
    if r == 3:
        kind = rng.choice(("min", "max"))
        seen.add(f"date {kind}")
        return ex.Aggregate(kind, "R", "cd")
    seen.add("date if")
    return ex.Call("if", (_boolean(rng, depth - 1, seen), _date(rng, depth - 1, seen),
                          _date(rng, depth - 1, seen)))


def _text(rng, depth, seen):
    if depth > 0 and rng.random() < 0.3:
        seen.add("text if")
        return ex.Call("if", (_boolean(rng, depth - 1, seen), _text(rng, depth - 1, seen),
                              _text(rng, depth - 1, seen)))
    seen.add("nominal attr")
    return ex.AttrRef("s")


def _boolean(rng, depth, seen):
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            seen.add("bool literal")
            return ex.Literal(rng.choice((True, False)))
        seen.add("bool attr")
        return ex.AttrRef("b")
    form = rng.randrange(6)
    if form == 0:
        op = rng.choice(("and", "or"))
        seen.add(op)
        return ex.Binary(op, _boolean(rng, depth - 1, seen), _boolean(rng, depth - 1, seen))
    if form == 1:
        op = rng.choice(CMP)
        seen.add(f"date {op}")
        return ex.Binary(op, _date(rng, depth - 1, seen), _date(rng, depth - 1, seen))
    if form == 2:
        op = rng.choice(("=", "!="))
        seen.add(f"text {op}")
        rhs = ex.Literal(rng.choice(WORDS)) if rng.random() < 0.5 else _text(rng, depth - 1, seen)
        return ex.Binary(op, _text(rng, depth - 1, seen), rhs)
    if form == 3:
        op = rng.choice(("=", "!="))
        seen.add(f"bool {op}")
        return ex.Binary(op, _boolean(rng, depth - 1, seen), _boolean(rng, depth - 1, seen))
    if form == 4:
        seen.add("bool if")
        return ex.Call("if", (_boolean(rng, depth - 1, seen), _boolean(rng, depth - 1, seen),
                              _boolean(rng, depth - 1, seen)))
    op = rng.choice(CMP)
    seen.add(f"numeric {op}")
    return ex.Binary(op, _numeric(rng, depth - 1, seen), _numeric(rng, depth - 1, seen))


GENERATORS = {"numeric": _numeric, "boolean": _boolean, "date": _date, "nominal": _text}


def _random_case(seed):
    rng = random.Random(seed)
    rows = rng.randint(0, 12)
    columns = {
        "x": [_pick(rng, NUMBERS) for _ in range(rows)],
        "y": [_pick(rng, NUMBERS) for _ in range(rows)],
        "b": [_pick(rng, (True, False)) for _ in range(rows)],
        "d": [_pick(rng, DATES) for _ in range(rows)],
        "e": [_pick(rng, DATES) for _ in range(rows)],
        "s": [_pick(rng, WORDS) for _ in range(rows)],
    }
    sizes = [rng.randint(0, 4) for _ in range(rows)]
    children = sum(sizes) + rng.randint(0, 2)  # a child row may have no parent
    partners = rng.sample(range(children), sum(sizes))
    groups = ex.Groups(np.array(partners, dtype=np.int64), np.array(sizes, dtype=np.int64))
    child = [_pick(rng, NUMBERS[:7]) for _ in range(children)]  # stored cells are finite
    child_dates = [_pick(rng, DATES) for _ in range(children)]
    related = {("R", None): (None, groups), ("R", "c"): (child, groups),
               ("R", "cd"): (child_dates, groups)}
    return rng, rows, columns, related


N_RANDOM = 400


@pytest.mark.parametrize("seed", range(N_RANDOM))
def test_random_expressions_equal_the_reference(seed):
    rng, rows, columns, related = _random_case(seed)
    kind = rng.choice(sorted(GENERATORS))
    e = GENERATORS[kind](rng, rng.randint(1, 4), set())
    assert ex.type_of(e, ENV) in (kind, "string")
    check(e, ENV, rows, columns, related)


def test_random_expressions_reach_every_node_kind():
    seen: set[str] = set()
    for seed in range(N_RANDOM):
        rng, *_ = _random_case(seed)
        GENERATORS[rng.choice(sorted(GENERATORS))](rng, rng.randint(1, 4), seen)
    every = ({"literal", "attr", "unary -", "+", "-", "*", "/", "abs", "years_between",
              "days_between", "if", "date literal", "date attr", "today", "date min", "date max",
              "date if", "text if", "nominal attr", "bool literal", "bool attr", "and", "or",
              "bool if", "text =", "text !=", "bool =", "bool !="}
             | {f"agg {k}" for k in ex.AGG_KINDS}
             | {f"{kind} {op}" for kind in ("date", "numeric") for op in CMP})
    assert every <= seen, sorted(every - seen)


def test_random_cases_hold_both_tags_none_zero_divisors_and_overflow():
    cells = set()
    for seed in range(N_RANDOM):
        _, _, columns, _ = _random_case(seed)
        cells.update(repr(v) for v in columns["x"] + columns["y"])
    assert {"Null(unknown)", "Null(not_applicable)", "None", "0.0", "-0.0", "1e+308"} <= cells


# ---------------------------------------------------------------------------
# Every derivation of the property-test schemas, and the binder's predicates


@pytest.mark.parametrize("seed", range(120))
def test_propgen_derivations_equal_the_reference(seed):
    case = Case(seed)
    schema, bound = case.schema, case.bound
    derivations = engine.Derivations(bound, CLOCK)
    checked = 0
    for ent in schema.entities:
        for attr in ent.attributes:
            if not attr.is_derived:
                continue
            e = attr.derivation
            columns = {a: derivations._cells(ent.name, a) for a in ex.referenced_attrs(e)}
            related = {}
            for agg in ex.referenced_aggregates(e):
                child = schema.relationship(agg.relationship).child_entity()
                cells = None if agg.attribute is None else derivations._cells(child, agg.attribute)
                related[agg.relationship, agg.attribute] = (cells, derivations.groups(agg.relationship))
            rows = bound.bundle.table(ent.name).row_count
            cells, diags = derivations.derived(ent.name, attr.name)
            want = reference(e, rows, {a: box(c) for a, c in columns.items()},
                             {key: (None if c is None else box(c), groups)
                              for key, (c, groups) in related.items()}, CLOCK)
            assert [repr(v) for v in box(cells)] == [repr(v) for v in want[0]], (ent.name, attr.name)
            assert [type(v) for v in box(cells)] == [type(v) for v in want[0]]
            assert diags == want[1]
            checked += 1
    assert checked == sum(len(v) for v in case.derived.values()) > 0


@pytest.mark.parametrize("seed", range(120))
def test_propgen_membership_predicates_equal_the_reference(seed):
    case = Case(seed)
    root = case.bundle.table("ROOT")
    env = case.schema.stored_env("ROOT")
    for gen in case.schema.generalizations:
        for st in gen.subtypes:
            columns = dict(zip(root.column_names, root.cells))
            check(st.membership, env, root.row_count, columns)


def test_binding_and_every_command_arm_never_run_the_one_row_evaluator(monkeypatch):
    def refuse(*args):
        raise AssertionError("the one-row evaluator ran")

    monkeypatch.setattr(ex, "eval_expr", refuse)
    for seed in range(12):
        case = Case(seed)  # binds: membership predicates
        assert case.bound.ok
        derivations = engine.Derivations(case.bound, CLOCK)
        engine.flatten_naive(case.bound, case.binding, derivations)
