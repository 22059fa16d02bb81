"""Differential tests of the grouped G4 summaries and the evaluation design.

``engine.summarize_child`` computes each numeric, boolean and nominal summary
as one numpy reduction over a relationship's partner index. The reference is
``expr.aggregate`` applied to each parent's partner cells in child-key order,
plus a ``Counter`` for the top-k category counts; every emitted cell must have
the reference's ``repr``. Sums are added left to right, so groups of more
than eight cells (where numpy's pairwise ``np.sum`` rounds differently) and
signed zeros are part of the data.
"""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cmml import binder, engine, evalkit, planner
from cmml import expr as ex
from cmml.expr import left_sum
from cmml.tabular import Column, Table
from cmml.values import NOT_APPLICABLE, UNKNOWN
from conftest import CLOCK, column, parse_full

SCHEMA = """
entity P {
  key pid: identifier
  attr y: numeric
}
entity C {
  key cid: identifier
  attr x: numeric
  attr flag: boolean
  attr cat: nominal
  attr note: text
  attr day: date
}
relationship R { P (0,1) -- (0,N) C via pid }
task T { target P.y }
"""

TOP_K = 3


def _number(rng: random.Random) -> str:
    """A finite cell: signed zeros, ties, and magnitudes far apart, so that
    the order of additions changes the last bits."""
    return rng.choice([
        "0.0", "-0.0", "1.0", "-1.0", "0.1", "1e16", "-1e16", "3.3",
        repr(rng.uniform(-1e6, 1e6)), repr(rng.uniform(-1, 1) * 10 ** rng.randint(-8, 17)),
    ])


def _write_case(tmp_path: Path, seed: int) -> None:
    rng = random.Random(seed)
    parents = rng.randint(1, 12)
    p_rows = [f"p{i:02d},{i}" for i in range(parents)]
    c_rows = []
    for j in range(rng.randint(0, 120)):
        # a few children in no group; many in one group, so groups pass 8 cells
        pid = "" if rng.random() < 0.05 else f"p{min(int(rng.expovariate(0.4)), parents - 1):02d}"
        cells = [
            "" if rng.random() < 0.15 else _number(rng),
            rng.choice(["", "true", "false"]),
            "" if rng.random() < 0.1 else rng.choice("abcdefg"[:rng.randint(1, 7)]),
            rng.choice(["", "n1", "n2", "n,3"]),
            rng.choice(["", "2019-01-02", "2018-05-06", "2020-12-31"]),
        ]
        c_rows.append(",".join([f"c{rng.randint(0, 10**6):07d}_{j}"] + [
            f'"{v}"' if "," in v else v for v in cells] + [pid]))
    rng.shuffle(c_rows)  # the child-key order, not the file order, is the summation order
    (tmp_path / "P.csv").write_text("pid,y\n" + "".join(r + "\n" for r in p_rows))
    (tmp_path / "C.csv").write_text("cid,x,flag,cat,note,day,pid\n"
                                    + "".join(r + "\n" for r in c_rows))


def _prepare(tmp_path: Path):
    schema = parse_full(SCHEMA)
    bundle, rep = binder.load_bundle(schema, tmp_path)
    assert rep.ok, rep.render()
    bound = binder.bind(schema, bundle)
    assert bound.ok, bound.report.render()
    task = schema.task("T")
    options = planner.PlanOptions.from_task(task, impute="none", top_k=TOP_K)
    plan = planner.compile_plan(bound.schema, task, options)
    datasets, manifest = engine.prepare(plan, bound, engine.Derivations(bound, CLOCK))
    return bound, datasets[0].table, manifest


def _reference(bound) -> tuple[dict[str, list], list[str]]:
    """Each summary column of the P dataset, computed per group with
    ``expr.aggregate``, and the non-finite-summary warnings."""
    ptable, ctable = bound.bundle.table("P"), bound.bundle.table("C")
    children: dict[object, list[int]] = {}  # from the foreign keys, not the binder's index
    for i, v in enumerate(column(ctable, "pid")):
        children.setdefault(v, []).append(i)
    cid = column(ctable, "cid")
    groups = [sorted(children.get(k, ()), key=lambda i: repr(cid[i])) for k in ptable.row_keys()]

    def cells(name: str) -> list[list]:
        cells = column(ctable, name)
        return [[cells[i] for i in g] for g in groups]

    expected: dict[str, list] = {"C_count": [ex.aggregate("count", g) for g in groups]}
    for agg in ("mean", "sum", "min", "max"):
        expected[f"C_x_{agg}"] = [ex.aggregate(agg, g) for g in cells("x")]
    freq = Counter(ex.known_cells(column(ctable, "cat")))
    ordered = sorted(freq, key=lambda c: (-freq[c], c))
    for cat in ordered[:TOP_K]:
        expected[f"C_cat_{cat}_count"] = [float(g.count(cat)) for g in cells("cat")]
    if len(ordered) > TOP_K:
        pooled = set(ordered[TOP_K:])
        expected["C_cat_OTHER_count"] = [float(sum(v in pooled for v in g)) for g in cells("cat")]
    expected["C_flag_true_count"] = [float(sum(v is True for v in g)) for g in cells("flag")]
    expected["C_note_concat"] = ["\n".join(k) if k else UNKNOWN
                                 for k in map(ex.known_cells, cells("note"))]
    for agg in ("min", "max"):
        expected[f"C_day_{agg}"] = [ex.aggregate(agg, g) for g in cells("day")]
    warnings = []
    for name, values in expected.items():
        bad = [i for i, v in enumerate(values) if isinstance(v, float) and not math.isfinite(v)]
        for i in bad:
            values[i] = UNKNOWN
        if bad:
            warnings.append(f"{name}: {len(bad)} non-finite value(s) set to unknown")
    return expected, warnings


def _check(tmp_path: Path) -> dict[str, list]:
    bound, table, manifest = _prepare(tmp_path)
    expected, warnings = _reference(bound)
    got = {c.name: column(table, c.name) for c in table.columns if c.name.startswith("C_")}
    assert list(got) == list(expected)  # the same columns, in the same order
    for name, values in expected.items():
        assert list(map(repr, got[name])) == list(map(repr, values)), name
    assert manifest["warnings"] == sorted(warnings)
    return got


@pytest.mark.parametrize("seed", range(40))
def test_summaries_equal_per_group_aggregate(seed, tmp_path):
    _write_case(tmp_path, seed)
    _check(tmp_path)


def test_differential_data_reaches_pairwise_rounding(tmp_path):
    """The random cases hold groups where np.sum's bits differ from a sum
    added left to right, so the comparison above would catch a pairwise sum."""
    differ = 0
    for seed in range(40):
        _write_case(tmp_path, seed)
        bound, _, _ = _prepare(tmp_path)
        ctable = bound.bundle.table("C")
        x = column(ctable, "x")
        partners: dict[int, list] = {}  # each parent's children's cells, in row order
        for cell, p in zip(x, bound.parent_rows["R"].tolist()):
            if p >= 0:
                partners.setdefault(p, []).append(cell)
        for cells in partners.values():
            known = ex.known_cells(cells)
            differ += len(known) > 8 and float(np.sum(known)) != left_sum(known)
    assert differ >= 5


def test_signed_zero_ties_keep_the_first_zero(tmp_path):
    (tmp_path / "P.csv").write_text("pid,y\np1,1\np2,2\np3,3\n")
    (tmp_path / "C.csv").write_text(
        "cid,x,flag,cat,note,day,pid\n"
        "a,0.0,,,,,p1\nb,-0.0,,,,,p1\n"      # min and max 0.0
        "c,-0.0,,,,,p2\nd,0.0,,,,,p2\ne,5,,,,,p2\n"  # min -0.0, max 5
        "f,-0.0,,,,,p3\ng,-0.0,,,,,p3\n")    # sum 0.0 (the sum starts at +0)
    got = _check(tmp_path)
    assert list(map(repr, got["C_x_min"])) == ["0.0", "-0.0", "-0.0"]
    assert list(map(repr, got["C_x_max"])) == ["0.0", "5.0", "-0.0"]
    assert list(map(repr, got["C_x_sum"])) == ["0.0", "5.0", "0.0"]


def test_overflow_becomes_unknown_with_a_warning(tmp_path):
    (tmp_path / "P.csv").write_text("pid,y\np1,1\np2,2\n")
    (tmp_path / "C.csv").write_text("cid,x,flag,cat,note,day,pid\n"
                                    "a,1e308,,,,,p1\nb,1e308,,,,,p1\nc,-1e308,,,,,p2\n"
                                    "d,-1e308,,,,,p2\ne,3,,,,,p2\n")
    got = _check(tmp_path)
    assert got["C_x_sum"] == [UNKNOWN, UNKNOWN]
    assert got["C_x_mean"] == [UNKNOWN, UNKNOWN]
    assert got["C_x_max"] == [1e308, 3.0]


def test_top_k_pools_the_rest_including_rows_in_no_group(tmp_path):
    (tmp_path / "P.csv").write_text("pid,y\np1,1\np2,2\n")
    # d is the most frequent category only because of the row in no group
    (tmp_path / "C.csv").write_text(
        "cid,x,flag,cat,note,day,pid\n" + "".join(
            f"c{i},,,{cat},,,{pid}\n" for i, (cat, pid) in enumerate([
                ("d", ""), ("d", "p1"), ("d", "p2"), ("d", ""), ("a", "p1"), ("a", "p2"),
                ("a", "p2"), ("b", "p1"), ("b", "p2"), ("c", "p2"), ("e", "p1")])))
    got = _check(tmp_path)
    assert [n for n in got if n.startswith("C_cat_")] == [
        "C_cat_d_count", "C_cat_a_count", "C_cat_b_count", "C_cat_OTHER_count"]
    assert got["C_cat_OTHER_count"] == [1.0, 1.0]


def test_quiet_overflow_prints_no_numpy_warning(tmp_path):
    schema = tmp_path / "s.cmml"
    schema.write_text(SCHEMA)
    data = tmp_path / "data"
    data.mkdir()
    (data / "P.csv").write_text("pid,y\n" + "".join(f"p{i},{3 * i + 1}\n" for i in range(12)))
    (data / "C.csv").write_text("cid,x,flag,cat,note,day,pid\n" + "".join(
        f"c{i:02d},{'1e308' if i in (0, 12) else i},true,a,,,p{i % 12}\n" for i in range(24)))
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "CMML_TODAY": "2019-06-01"}
    common = ["--schema", str(schema), "--data-dir", str(data), "--task", "T", "--quiet"]
    # evaluate fails on the naive arm, whose raw 1e308 cells overflow least squares
    for command, code in ((["prepare", "--out", str(tmp_path / "out")], 0),
                          (["evaluate", "--folds", "3"], 1)):
        proc = subprocess.run([sys.executable, "-m", "cmml.cli", *command, *common],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    manifest = (tmp_path / "out" / "manifest.json").read_text()
    assert "C_x_sum: 1 non-finite value(s) set to unknown" in manifest


# ---------------------------------------------------------------------------
# The evaluation design


@pytest.mark.parametrize("seed", range(20))
def test_fit_means_are_left_sums_of_the_train_rows(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)

    def cell():
        roll = rng.random()
        if roll < 0.2:
            return rng.choice([UNKNOWN, NOT_APPLICABLE, None])
        return float(_number(rng))

    columns = [Column("k", "identifier"), Column("a", "numeric"), Column("b", "numeric"),
               Column("f", "boolean"), Column("c", "nominal"), Column("y", "numeric")]
    rows = [[f"k{i}", cell(), cell(), rng.random() < 0.5, rng.choice("xyz"), 0.0]
            for i in range(n)]
    design = evalkit.OneHotDesign(Table("T", columns, rows, ["k"]), "y")
    train = np.array(sorted(rng.sample(range(n), rng.randint(0, n))), dtype=np.int64)
    design.solve([design.fit(train)], 1e-6)
    for j, column in enumerate((1, 2)):  # a and b
        known = ex.known_cells(rows[i][column] for i in train.tolist())
        expected = left_sum(known) / len(known) if known else 0.0
        # summed as row 0 of XᵀX in BLAS's order, not left to right: two
        # orders of n additions differ by at most 2 (n - 1) u sum|x|
        u = 2.0 ** -53
        bound = 2 * len(known) * u * sum(map(abs, known)) / max(len(known), 1)
        assert abs(design.means[j].item() - expected) <= bound + 2 * u * abs(expected)
    X = design.transform(np.arange(n))
    assert X.flags["C_CONTIGUOUS"] and X[:, 1:].shape == (n, 3 + len(design.kept[0]))
