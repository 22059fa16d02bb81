import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cmml import cli
from conftest import CLOCK, EXAMPLE_DATA, EXAMPLE_SCHEMA


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")


def run(*argv):
    return cli.main(list(argv))


def test_usage_error_exit_2(capsys):
    assert run() == 2
    assert run("prepare") == 2  # missing required flags
    assert run("nonsense") == 2


def _full_parser_exit(argv) -> int:
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_USAGE if exc.code not in (0, None) else cli.EXIT_OK
    return -1  # parsed: main would run the command


def _required(cmd) -> list[str]:
    flags = {"schema": "--schema", "data": "--data-dir", "task": "--task", "out": "--out"}
    return [a for option, flag in flags.items() if cli.SUBCOMMANDS[cmd][2].get(option)
            for a in (flag, "x")]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["nonsense"], ["--quiet", "validate"]]
                         + [[cmd, *rest] for cmd in cli.SUBCOMMANDS
                            for rest in (["--help"], [], ["--bogus"], [*_required(cmd), "extra"],
                                         [*_required(cmd), "--bogus"])]
                         + [["evaluate", "--folds", "x"], ["generate", "--seed"]]
                         # options a command would not read
                         + [[cmd, *_required(cmd), *rest] for cmd, rest in (
                             ("flatten", ["--json"]), ("flatten", ["--seed", "1"]),
                             ("validate", ["--seed", "1"]))],
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_output_equals_the_full_parser(argv, capsys):
    # main builds only the named subcommand's options; what it prints must
    # not show it (an unrecognized argument is reported with the top-level
    # usage, which lists every subcommand)
    code = _full_parser_exit(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
    want = capsys.readouterr()
    assert cli.main(argv) == code
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert want.out or want.err


def test_validate_ok():
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--quiet") == 0


def test_validate_json(capsys):
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--json", "--quiet") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    places = next(c for c in doc["cardinalities"] if c["relationship"] == "PLACES")
    assert places["conformant"] is True


def _example_without_customer_400_orders(tmp_path):
    for f in EXAMPLE_DATA.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    orders = tmp_path / "ORDER.csv"
    lines = orders.read_text().splitlines(keepends=True)
    orders.write_text("".join(line for line in lines if ",400," not in line))
    return tmp_path


def test_validate_json_diagnostics_are_objects(tmp_path, capsys):
    data = _example_without_customer_400_orders(tmp_path)
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(data), "--json", "--quiet") == 0
    doc = json.loads(capsys.readouterr().out)
    diags = doc["diagnostics"]
    assert isinstance(diags, list) and diags
    for d in diags:
        assert set(d) == {"severity", "code", "message", "location"}
    assert any(d["code"] == "mandatory-participation" and "400" in d["message"]
               for d in diags)


def test_validate_text_counts_violations(tmp_path, capsys):
    data = _example_without_customer_400_orders(tmp_path)
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(data)) == 0
    err = capsys.readouterr().err
    assert "PLACES: declared (1,N) observed (0,4) VIOLATED (1 rows)" in err


def test_validate_dangling_fk_exit_1(tmp_path, capsys):
    for f in EXAMPLE_DATA.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "ORDER.csv").write_text(
        (tmp_path / "ORDER.csv").read_text().replace(",101,", ",999,", 1))
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(tmp_path)) == 1
    assert "999" in capsys.readouterr().err


ONE_TABLE = "entity P { key pid: identifier attr y: numeric }\ntask T { target P.y }\n"


@pytest.mark.parametrize("schema, table, codes, error", [
    (ONE_TABLE, "pid,y\n" + "".join(f"p{i},x{i}\n" for i in range(19)) + "p19,1\n",
     ["bad-cell"] * 19, "failed to load tables from"),
    (ONE_TABLE, None, ["missing-table"], "failed to load tables from"),
    ("entity P { key pid: identifier attr y: numeric\n", "pid,y\np1,1\n", ["parse"], "has errors"),
    (ONE_TABLE + "relationship R { P (1,1) -- (0,N) B via pid }\n", "pid,y\np1,1\n",
     ["unknown-entity"], "failed validation"),
], ids=["bad-cells", "missing-table", "parse", "validation"])
def test_validate_json_lists_every_diagnostic_when_loading_fails(schema, table, codes, error,
                                                                tmp_path, capsys):
    (tmp_path / "s.cmml").write_text(schema)
    if table is not None:
        (tmp_path / "P.csv").write_text(table)
    assert run("validate", "--schema", str(tmp_path / "s.cmml"), "--data-dir", str(tmp_path),
               "--json") == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["ok"] is False and doc["cardinalities"] == []
    assert [d["code"] for d in doc["diagnostics"]] == codes
    # stderr shows at most five of a kind, then why the command stopped
    shown = [f"error: {d['code']}: {d['message']}" + (f" [{d['location']}]" if d["location"] else "")
             for d in doc["diagnostics"][:5]]
    lines = err.splitlines()
    assert lines[:len(shown)] == shown
    assert lines[-1].startswith("error: ") and error in lines[-1]


def test_duplicated_csv_column_exit_1(tmp_path, capsys):
    # the second gender column used to be dropped silently
    for f in EXAMPLE_DATA.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    customers = tmp_path / "CUSTOMER.csv"
    customers.write_text("".join(line.rstrip("\n") + f",{line.split(',')[1]}\n"
                                 for line in customers.read_text().splitlines(keepends=True)))
    assert customers.read_text().startswith("cust_id,gender,dob,gender\n101,F,1996-10-12,F\n")
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"error: duplicate-column: {customers}: duplicated column(s) ['gender']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "prepare", "flatten"])
@pytest.mark.parametrize("total", ["nan", "inf"])
def test_non_finite_numeric_cell_exit_1(command, total, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for f in EXAMPLE_DATA.iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    orders = data / "ORDER.csv"
    orders.write_text(orders.read_text().replace("1002,35,", f"1002,{total},"))
    argv = [command, "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(data)]
    if command != "validate":
        argv += ["--task", "PREDICT_LTV", "--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad-cell" in err and "ORDER:2:total" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "plan", "prepare"])
def test_non_finite_number_literal_exit_1(command, tmp_path, capsys):
    schema = tmp_path / "s.cmml"
    schema.write_text(EXAMPLE_SCHEMA.read_text().replace(
        "sum(PLACES.total)", "sum(PLACES.total) * 1e999"))
    argv = [command, "--schema", str(schema)]
    if command != "plan":
        argv += ["--data-dir", str(EXAMPLE_DATA)]
    if command != "validate":
        argv += ["--task", "PREDICT_LTV"]
    if command == "prepare":
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "parse: bad expression" in err and "1e999 is not finite" in err


def test_unknown_task_exit_1(capsys):
    assert run("plan", "--schema", str(EXAMPLE_SCHEMA), "--task", "NOPE") == 1


def test_plan_text(capsys):
    assert run("plan", "--schema", str(EXAMPLE_SCHEMA),
               "--task", "PREDICT_LTV", "--quiet") == 0
    out = capsys.readouterr().out
    assert "PREDICT_LTV" in out and "Guideline 4" in out


def test_prepare_end_to_end(tmp_path):
    out = tmp_path / "out"
    assert run("prepare", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--task", "PREDICT_LTV",
               "--out", str(out), "--quiet") == 0
    assert (out / "PREDICT_LTV.csv").exists()
    assert (out / "manifest.json").exists()
    header = (out / "PREDICT_LTV.csv").read_text().splitlines()[0]
    assert header.startswith("CUSTOMER_cust_id,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "PREDICT_LTV"


def test_prepare_deterministic_reruns(tmp_path):
    args = ("prepare", "--schema", str(EXAMPLE_SCHEMA), "--data-dir",
            str(EXAMPLE_DATA), "--task", "PREDICT_LTV", "--quiet")
    assert run(*args, "--out", str(tmp_path / "a")) == 0
    assert run(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("PREDICT_LTV.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_flatten(tmp_path):
    out = tmp_path / "out"
    assert run("flatten", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--task", "PREDICT_LTV",
               "--out", str(out), "--quiet") == 0
    lines = (out / "ds0.csv").read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 rows


def test_flatten_write_failure_exit_1_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the disk fills after the first piece of ds0.csv: a coded exit, no
    # traceback, and no partly written file
    from cmml import tabular
    real, sizes = tabular._write_table, []

    def failing(table, out):
        class Full:
            def write(self, data):
                if sizes:
                    raise OSError(28, "No space left on device")
                sizes.append(len(data))
                return out.write(data)
        real(table, Full())

    monkeypatch.setattr(tabular, "_write_table", failing)
    out = tmp_path / "out"
    assert run("flatten", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(EXAMPLE_DATA),
               "--task", "PREDICT_LTV", "--out", str(out), "--quiet") == 1
    err = capsys.readouterr().err
    assert sizes and err.startswith("error: ") and "No space left" in err
    assert "Traceback" not in err
    assert out.is_dir() and not (out / "ds0.csv").exists()


@pytest.mark.parametrize("method, failing_call, name", [
    ("write_bytes", 2, "PREDICT_LTV_train.csv"), ("write_text", 1, "manifest.json")])
def test_prepare_write_failure_exit_1_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                     method, failing_call, name):
    # the disk fills halfway through the train part of the holdout split, or
    # through manifest.json: a coded exit, and no file left behind, the
    # partly written one included
    real, calls = getattr(Path, method), []

    def failing(path, data, *args, **kwargs):
        calls.append(path.name)
        if len(calls) == failing_call:
            real(path, data[:len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return real(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, method, failing)
    out = tmp_path / "out"
    assert run("prepare", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(EXAMPLE_DATA),
               "--task", "PREDICT_LTV", "--out", str(out), "--holdout", "0.5", "--quiet") == 1
    err = capsys.readouterr().err
    assert calls[-1] == name
    assert err.startswith("error: ") and "No space left" in err
    assert out.is_dir() and list(out.iterdir()) == []


def test_generate_and_evaluate(tmp_path, capsys):
    out = tmp_path / "synth"
    assert run("generate", "--out", str(out), "--seed", "42", "--quiet") == 0
    assert (out / "CUSTOMER.csv").exists() and (out / "ORDER.csv").exists()
    assert (out / "synthetic.cmml").exists()
    capsys.readouterr()
    assert run("evaluate", "--schema", str(out / "synthetic.cmml"),
               "--data-dir", str(out), "--task", "PREDICT_LTV",
               "--folds", "5", "--seed", "0", "--quiet") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tds"]["r2"] > doc["ds0"]["r2"]
    assert doc["wilcoxon"]["p_two_tailed"] < 0.05


def test_evaluate_reports_constant_actuals(tmp_path, capsys):
    # every ltv equal: each arm's r2 is defined as 0, a coded warning per arm
    out = tmp_path / "synth"
    assert run("generate", "--out", str(out), "--seed", "3", "--quiet") == 0
    rows = _csv_rows(out / "CUSTOMER.csv")
    with open(out / "CUSTOMER.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({**r, "ltv": "5"} for r in rows)
    args = ["evaluate", "--schema", str(out / "synthetic.cmml"), "--data-dir", str(out),
            "--task", "PREDICT_LTV", "--range", "10"]
    capsys.readouterr()
    assert run(*args) == 0
    stdout, err = capsys.readouterr()
    assert [json.loads(stdout)[arm]["r2"] for arm in ("ds0", "tds")] == [0.0, 0.0]
    assert err.splitlines() == [
        f"warning: constant-actuals: every actual is equal: r2 defined as 1 when SSres=0, "
        f"else 0 [{arm}]"
        for arm in ("ds0", "tds")]
    assert run(*args, "--quiet") == 0
    assert capsys.readouterr() == (stdout, "")


def test_generate_seed_changes_output(tmp_path):
    assert run("generate", "--out", str(tmp_path / "a"), "--seed", "1", "--quiet") == 0
    assert run("generate", "--out", str(tmp_path / "b"), "--seed", "2", "--quiet") == 0
    assert ((tmp_path / "a" / "ORDER.csv").read_bytes()
            != (tmp_path / "b" / "ORDER.csv").read_bytes())


def test_generate_with_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"customers": 12, "fanout_max": 3}))
    assert run("generate", "--out", str(tmp_path / "g"), "--seed", "5",
               "--spec", str(spec), "--json", "--quiet") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tables"]["CUSTOMER"] == 12
    lines = (tmp_path / "g" / "CUSTOMER.csv").read_text().strip().splitlines()
    assert len(lines) == 13


def test_generate_bad_spec_exit_1(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bogus": 1}))
    assert run("generate", "--out", str(tmp_path / "g"), "--spec", str(spec)) == 1


def test_bad_cmml_today_exit_2(monkeypatch, tmp_path):
    monkeypatch.setenv("CMML_TODAY", "June 1st")
    assert run("prepare", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--task", "PREDICT_LTV",
               "--out", str(tmp_path / "x"), "--quiet") == 2


@pytest.mark.parametrize("today", ["20190601", "2019-W22-6", "2019-6-1", "2019-06-01 "])
def test_cmml_today_other_than_yyyy_mm_dd_exit_2(today, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CMML_TODAY", today)
    assert run("prepare", "--schema", str(EXAMPLE_SCHEMA),
               "--data-dir", str(EXAMPLE_DATA), "--task", "PREDICT_LTV",
               "--out", str(tmp_path / "x"), "--quiet") == 2
    assert "error: CMML_TODAY must be YYYY-MM-DD" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("dob", ["19961012", "1996-W41-6", "1996-10-1"])
def test_date_cell_other_than_yyyy_mm_dd_is_bad_cell(dob, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(EXAMPLE_DATA, data)
    customers = data / "CUSTOMER.csv"
    customers.write_text(customers.read_text().replace("101,F,1996-10-12", f"101,F,{dob}"))
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(data)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"error: bad-cell: {customers}: row 1, column 'dob': "
            f"expected ISO-8601 date (YYYY-MM-DD), got '{dob}' [CUSTOMER:1:dob]") in err


# Membership and applicable_when predicates run in the binder: today() there
# follows CMML_TODAY, and a predicate over a derived attribute or an aggregate
# is a schema error, not a traceback or a predicate that is null on every row.
PREDICATE_SCHEMA = """
entity CUSTOMER {{
  key cust_id: identifier
  attr dob: date
  attr spend: numeric
  attr pension: numeric applicable_when (years_between(dob, today()) >= 65)
  derived attr big: boolean = spend > 100
}}
entity ORDER {{ key order_id: identifier attr total: numeric }}
relationship PLACES {{ CUSTOMER (1,1) -- (0,N) ORDER via cust_id }}
generalization AGE of CUSTOMER overlap {{
  subtype YOUNG when ({young})
  subtype ANY when (spend >= 0)
}}
task T {{ target CUSTOMER.spend split_by AGE }}
"""


def _predicate_case(tmp_path, young):
    schema = tmp_path / "s.cmml"
    schema.write_text(PREDICATE_SCHEMA.format(young=young))
    data = tmp_path / "data"
    data.mkdir()
    (data / "CUSTOMER.csv").write_text("cust_id,dob,spend,pension\nc1,1980-01-01,50,\n"
                                       "c2,1955-01-01,200,\nc3,1940-01-01,10,1000\n")
    (data / "ORDER.csv").write_text("order_id,total,cust_id\no1,5,c1\no2,7,c1\n")
    return ["--schema", str(schema), "--data-dir", str(data)]


# c1 is under 40 on the first date only; c2 turns 65 between the two, so its
# missing pension becomes applicable (unknown, and imputed) on the second
@pytest.mark.parametrize("today,young,pensions", [
    ("2019-06-01", ["c1"], {"c1": "", "c2": "", "c3": "1000"}),
    ("2021-06-01", [], {"c1": "", "c2": "1000", "c3": "1000"}),
])
def test_today_in_binder_predicates_follows_cmml_today(today, young, pensions, monkeypatch,
                                                       tmp_path, capsys):
    monkeypatch.setenv("CMML_TODAY", today)
    common = _predicate_case(tmp_path, "years_between(dob, today()) < 40")
    assert run("validate", *common, "--json") == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    out = tmp_path / "out"
    assert run("prepare", *common, "--task", "T", "--out", str(out), "--quiet") == 0
    rows = (out / "T_YOUNG.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == young
    with open(out / "T_ANY.csv", newline="") as fh:
        got = {r["CUSTOMER_cust_id"]: r["CUSTOMER_pension"] for r in csv.DictReader(fh)}
    assert got == pensions


@pytest.mark.parametrize("young", ["count(PLACES) > 1", "big"])
@pytest.mark.parametrize("command", ["validate", "prepare"])
def test_binder_predicate_over_aggregate_or_derived_attr_exit_1(young, command, tmp_path,
                                                                capsys):
    argv = [command, *_predicate_case(tmp_path, young)]
    if command == "prepare":
        argv += ["--task", "T", "--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: expr-type: membership of subtype YOUNG: unknown " in err
    assert not (tmp_path / "out").exists()


def _one_entity(tmp_path, target_kind, v_kind, v_cells):
    """Schema and data for one entity E with target ``t`` and predictor ``v``;
    returns the schema path and the ``--data-dir``/``--task`` arguments."""
    schema = tmp_path / "s.cmml"
    schema.write_text(f"entity E {{ key id: identifier attr t: {target_kind} "
                      f"attr v: {v_kind} }}\ntask T {{ target E.t }}\n")
    data = tmp_path / "data"
    data.mkdir()
    targets = {"numeric": ("1", "2", "3"), "nominal": ("a", "b", "a"),
               "boolean": ("true", "false", "true")}[target_kind]
    rows = [f"{k},{t},{v}\n" for k, t, v in zip("abc", targets, v_cells)]
    (data / "E.csv").write_text("id,t,v\n" + "".join(rows))
    return str(schema), ["--data-dir", str(data), "--task", "T"]


@pytest.mark.parametrize("command", ["plan", "prepare", "evaluate"])
@pytest.mark.parametrize("impute", ["bogus", "constant", "mean", ""])
def test_unknown_impute_value_exit_2(command, impute, tmp_path, capsys):
    schema, rest = _one_entity(tmp_path, "numeric", "numeric", ("", "5", "6"))
    argv = [command, "--schema", schema, *rest, "--impute", impute]
    if command == "plan":
        argv = [command, "--schema", schema, "--task", "T", "--impute", impute]
    if command == "prepare":
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "--impute must be mean_mode, none or constant:<value>" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["plan", "prepare", "evaluate"])
@pytest.mark.parametrize("flag,value,message", [
    ("--agg", "bogus", "--agg: unknown aggregate(s) ['bogus']"),
    ("--agg", "mean,", "--agg: unknown aggregate(s) ['']"),
    ("--top-k", "-3", "--top-k: top_k must be positive"),
    ("--top-k", "0", "--top-k: top_k must be positive"),
    ("--holdout", "2", "--holdout must be a fraction with 0 <= h < 1, got 2.0"),
    ("--holdout", "1", "--holdout must be a fraction with 0 <= h < 1, got 1.0"),
    ("--holdout", "-1", "--holdout must be a fraction with 0 <= h < 1, got -1.0"),
    ("--holdout", "nan", "--holdout must be a fraction with 0 <= h < 1, got nan"),
    ("--holdout", "inf", "--holdout must be a fraction with 0 <= h < 1, got inf"),
])
def test_bad_tuning_value_exit_2(command, flag, value, message, tmp_path, capsys):
    argv = [command, "--schema", str(EXAMPLE_SCHEMA), "--task", "PREDICT_LTV", f"{flag}={value}"]
    if command != "plan":
        argv += ["--data-dir", str(EXAMPLE_DATA)]
    if command == "prepare":
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--range", "nan", "--range must be finite and > 0, got nan"),
    ("--range", "inf", "--range must be finite and > 0, got inf"),
    ("--range", "-inf", "--range must be finite and > 0, got -inf"),
    ("--range", "0", "--range must be finite and > 0, got 0.0"),
    ("--range", "-5", "--range must be finite and > 0, got -5.0"),
    ("--folds", "1", "--folds must be at least 2, got 1"),
    ("--folds", "0", "--folds must be at least 2, got 0"),
    ("--folds", "-3", "--folds must be at least 2, got -3"),
])
def test_bad_evaluate_value_exit_2_before_reading_data(flag, value, message, monkeypatch, capsys):
    # `--range nan --json` printed a NaN nrmse, which is not JSON, and exited 0;
    # `--range 0` and `--folds 1` exited 1 only after binding and fitting
    def read(*args, **kwargs):
        raise AssertionError("evaluate read the data")

    monkeypatch.setattr(cli.binder, "load_bundle", read)
    assert run("evaluate", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(EXAMPLE_DATA),
               "--task", "PREDICT_LTV", "--json", f"{flag}={value}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("kind,cells,const", [
    ("numeric", ("", "5", "6"), "abc"),
    ("numeric", ("", "5", "6"), "inf"),
    ("numeric", ("", "5", "6"), "nan"),
    ("numeric", ("", "5", "6"), ""),
    ("boolean", ("", "true", "false"), "yes"),
    ("date", ("", "2019-01-01", "2019-01-02"), "2019-13-01"),
])
def test_bad_impute_constant_exit_1(kind, cells, const, tmp_path, capsys):
    schema, rest = _one_entity(tmp_path, "numeric", kind, cells)
    assert run("prepare", "--schema", schema, *rest, "--impute", f"constant:{const}",
               "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: dataset T: column 'v': bad impute constant {const!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,cells,const,filled", [
    ("numeric", ("", "5", "6"), "-1.5", "-1.5"),
    ("boolean", ("", "true", "false"), "true", "true"),
    ("date", ("", "2019-01-01", "2019-01-02"), "2020-02-29", "2020-02-29"),
    ("nominal", ("", "x", "y"), "z", "z"),
])
def test_impute_constant_parsed_for_column_kind(kind, cells, const, filled, tmp_path):
    schema, rest = _one_entity(tmp_path, "numeric", kind, cells)
    assert run("prepare", "--schema", schema, *rest, "--impute", f"constant:{const}",
               "--out", str(tmp_path / "out"), "--quiet") == 0
    lines = (tmp_path / "out" / "T.csv").read_text().splitlines()
    assert lines[0] == "E_id,E_v,E_t"
    assert lines[1] == f"a,{filled},1"


@pytest.mark.parametrize("kind", ["nominal", "boolean"])
@pytest.mark.parametrize("extra", [[], ["--range", "1"]])
def test_evaluate_refuses_non_numeric_target(kind, extra, tmp_path, capsys):
    schema, rest = _one_entity(tmp_path, kind, "numeric", ("1", "2", "3"))
    assert run("evaluate", "--schema", schema, *rest, "--folds", "2", *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: non-numeric-target: target E.t is {kind}" in captured.err
    assert "error: task T: evaluate needs a numeric target" in captured.err


def test_evaluate_non_finite_prediction_exit_1(tmp_path):
    # In a child process with a timeout: two 1e308 order totals overflow the
    # naive arm's least squares, and its nan errors once hung the signed-rank test.
    schema = tmp_path / "s.cmml"
    schema.write_text("entity CUSTOMER { key cust_id: identifier attr spend: numeric }\n"
                      "entity ORDER { key order_id: identifier attr total: numeric }\n"
                      "relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }\n"
                      "task T { target CUSTOMER.spend }\n")
    data = tmp_path / "data"
    data.mkdir()
    (data / "CUSTOMER.csv").write_text(
        "cust_id,spend\n" + "".join(f"c{i},{3 * i + 1}\n" for i in range(12)))
    (data / "ORDER.csv").write_text("order_id,cust_id,total\n" + "".join(
        f"o{i},c{i % 12},{'1e308' if i < 2 else i}\n" for i in range(24)))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cmml.cli", "evaluate", "--schema", str(schema),
         "--data-dir", str(data), "--task", "T", "--quiet"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "CMML_TODAY": "2019-06-01"})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: signed-rank test needs finite paired differences, got nan" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("bad_row,code", [
    (b"999,F\xe9,1990-01-01\n", "encoding"),
    (b'999,"' + b"F" * 200_000 + b'",1990-01-01\n', "bad-csv"),
])
def test_unreadable_csv_exit_1(bad_row, code, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(EXAMPLE_DATA, data)
    with open(data / "CUSTOMER.csv", "ab") as fh:
        fh.write(bad_row)
    assert run("validate", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(data)) == 1
    err = capsys.readouterr().err
    assert f"error: {code}: {data / 'CUSTOMER.csv'}: " in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Derived attributes that read other derived attributes


def _dependent_case(tmp_path):
    from test_engine import DEPENDENT_DATA, DEPENDENT_SCHEMA
    schema = tmp_path / "s.cmml"
    schema.write_text(DEPENDENT_SCHEMA)
    data = tmp_path / "data"
    data.mkdir()
    for name, text in DEPENDENT_DATA.items():
        (data / f"{name}.csv").write_text(text)
    return ["--schema", str(schema), "--data-dir", str(data), "--task", "T", "--quiet"]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_derivations_follow_what_they_read(tmp_path):
    common = _dependent_case(tmp_path)
    assert run("prepare", *common, "--impute", "none", "--out", str(tmp_path / "p")) == 0
    rows = _csv_rows(tmp_path / "p" / "T.csv")
    assert [(r["ORDER_z_sum"], r["ORDER_z2_sum"], r["ORDER_twice_sum"]) for r in rows] == [
        ("4", "8", "8"), ("2", "12", "9"), ("0", "0", "0")]
    assert run("flatten", *common, "--out", str(tmp_path / "f")) == 0
    rows = _csv_rows(tmp_path / "f" / "ds0.csv")
    assert [(r["ORDER_order_id"], r["ORDER_z"], r["ORDER_z2"], r["ORDER_twice"])
            for r in rows if r["ORDER_order_id"]] == [
        ("o1", "4", "6", "7"), ("o1", "4", "6", "7"), ("o2", "0", "2", "1"),
        ("o3", "2", "12", "9")]


@pytest.mark.parametrize("command", ["validate", "plan", "prepare", "flatten", "evaluate"])
def test_derivation_cycle_exit_1(command, tmp_path, capsys):
    schema = tmp_path / "s.cmml"
    schema.write_text("entity E { key id: identifier attr t: numeric\n"
                      "  derived attr w: numeric = w2 + 1\n"
                      "  derived attr w2: numeric = w + 1 }\ntask T { target E.t }\n")
    (tmp_path / "E.csv").write_text("id,t\na,1\nb,2\n")
    argv = [command, "--schema", str(schema)]
    if command != "plan":
        argv += ["--data-dir", str(tmp_path)]
    if command != "validate":
        argv += ["--task", "T"]
    if command in ("prepare", "flatten"):
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert ("error: derivation-cycle: derived attributes read each other in a cycle: "
            "E.w -> E.w2 -> E.w [E]") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "plan"])
def test_many_to_many_name_collision_exit_1(command, tmp_path, capsys):
    schema = tmp_path / "s.cmml"
    schema.write_text("entity A { key aid: identifier attr x: numeric }\n"
                      "entity B { key bid: identifier }\nentity A_B { key k: identifier }\n"
                      "relationship R { A (0,N) -- (0,N) B via aid, bid }\ntask T { target A.x }\n")
    for name, text in (("A", "aid,x\na1,1\n"), ("B", "bid\nb1\n"), ("A_B", "k\nk1\n")):
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [command, "--schema", str(schema)]
    argv += ["--data-dir", str(tmp_path)] if command == "validate" else ["--task", "T"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "error: nm-name-collision: relationship R: its associative entity A_B" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "plan"])
def test_two_many_to_many_over_one_pair_exit_1(command, tmp_path, capsys):
    # both would rewrite to the associative entity A_B
    schema = tmp_path / "s.cmml"
    schema.write_text("entity A { key aid: identifier attr x: numeric }\n"
                      "entity B { key bid: identifier }\n"
                      "relationship R { A (0,N) -- (0,N) B via aid, bid }\n"
                      "relationship S { A (0,N) -- (0,N) B via aid, bid }\ntask T { target A.x }\n")
    for name, text in (("A", "aid,x\na1,1\n"), ("B", "bid\nb1\n"), ("A_B", "aid,bid\na1,b1\n")):
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [command, "--schema", str(schema)]
    argv += ["--data-dir", str(tmp_path)] if command == "validate" else ["--task", "T"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert ("error: nm-name-collision: relationship S: its associative entity A_B is also "
            "relationship R's [S]") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "plan", "prepare", "flatten", "evaluate"])
def test_schema_not_utf8_exit_1(command, tmp_path, capsys):
    schema = tmp_path / "s.cmml"
    text = EXAMPLE_SCHEMA.read_bytes()
    schema.write_bytes(text[:100] + b"\xff" + text[100:])
    argv = [command, "--schema", str(schema)]
    if command != "plan":
        argv += ["--data-dir", str(EXAMPLE_DATA)]
    if command != "validate":
        argv += ["--task", "PREDICT_LTV"]
    if command in ("prepare", "flatten"):
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: encoding: {schema}: not UTF-8: byte 0xff at offset 100" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec,message", [
    (b'{"customers": ', "error: bad-spec: {spec}: Expecting value: line 1 column 15 (char 14)"),
    (b'{"customers": 12, "fanout_max": \xff}',
     "error: encoding: {spec}: not UTF-8: byte 0xff at offset 32"),
    (b'{"customers": 2.5}', "error: bad-spec: {spec}: invalid generator spec: bad customers 2.5"),
    (b'{"channels": []}', "error: bad-spec: {spec}: invalid generator spec: bad channels ()"),
], ids=["malformed-json", "not-utf8", "float-count", "no-channels"])
def test_generate_unreadable_spec_exit_1(spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(spec)
    assert run("generate", "--out", str(tmp_path / "g"), "--spec", str(path)) == 1
    err = capsys.readouterr().err
    assert message.format(spec=path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "g").exists()


# ---------------------------------------------------------------------------
# evaluate does each unit of work once


def _chain_evaluate(tmp_path):
    from test_golden import CHAIN_DATA, CHAIN_SCHEMA, _inline
    schema, data, task = _inline(CHAIN_SCHEMA, CHAIN_DATA)(tmp_path)
    return ["evaluate", "--schema", str(schema), "--data-dir", str(data), "--task", task,
            "--json", "--quiet", "--range", "100"]


def test_evaluate_derives_each_cell_once(tmp_path, monkeypatch, capsys):
    """evaluate runs one column evaluation per derived attribute, shared by
    both of its arms, and never the one-row reference evaluator."""
    from collections import Counter
    from cmml import dsl, expr
    from test_golden import CHAIN_SCHEMA
    eval_column, calls = expr.eval_column, Counter()

    def counting(e, *args):
        calls[expr.pretty_print(e)] += 1
        return eval_column(e, *args)

    def refuse(*args):
        raise AssertionError("the one-row evaluator ran")

    monkeypatch.setattr(expr, "eval_column", counting)
    monkeypatch.setattr(expr, "eval_expr", refuse)
    assert run(*_chain_evaluate(tmp_path)) == 0
    schema, _ = dsl.parse_schema(dsl.SchemaSource(CHAIN_SCHEMA, origin="<test>"))
    derivations = [expr.pretty_print(a.derivation) for e in schema.entities
                   for a in e.attributes if a.is_derived]
    assert len(derivations) == 4
    assert calls == Counter(derivations)


def test_evaluate_hashes_and_writes_no_table(tmp_path, monkeypatch, capsys):
    from cmml import engine

    def refuse(table):
        raise AssertionError(f"evaluate serialized table {table.name}")

    monkeypatch.setattr(engine, "table_to_csv_bytes", refuse)
    assert run(*_chain_evaluate(tmp_path)) == 0


@pytest.mark.parametrize("holdout", [None, "0.4"])
def test_prepare_serializes_only_emitted_datasets(tmp_path, monkeypatch, holdout):
    """prepare writes each dataset (and with --holdout its two parts) once,
    and never serializes an input table: the manifest pins inputs by the
    bytes read_csv read."""
    from collections import Counter
    from cmml import engine
    from test_golden import FROM_TABLE_DATA, FROM_TABLE_SCHEMA, _inline
    serialize, calls = engine.table_to_csv_bytes, Counter()

    def counting(table):
        calls[table.name] += 1
        return serialize(table)

    monkeypatch.setattr(engine, "table_to_csv_bytes", counting)
    schema, data, task = _inline(FROM_TABLE_SCHEMA, FROM_TABLE_DATA)(tmp_path)
    out = tmp_path / "out"
    argv = ["prepare", "--schema", str(schema), "--data-dir", str(data), "--task", task,
            "--out", str(out), "--quiet"]
    if holdout is not None:
        argv += ["--holdout", holdout]
    assert run(*argv) == 0
    written = ["T_GOLD", "T_TRIAL"]
    if holdout is not None:
        written += [f"{name}_{part}" for name in written for part in ("train", "test")]
    assert calls == Counter(written)
    assert sorted(p.stem for p in out.glob("*.csv")) == sorted(written)


def test_prepare_output_does_not_depend_on_line_ends_but_the_pins_do(tmp_path):
    # the example data with CRLF line ends: the same datasets, and a manifest
    # that differs only in table_sha256, each the digest of the CRLF file
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for path in EXAMPLE_DATA.glob("*.csv"):
        (crlf / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    manifests = {}
    for name, data in (("lf", EXAMPLE_DATA), ("crlf", crlf)):
        assert run("prepare", "--schema", str(EXAMPLE_SCHEMA), "--data-dir", str(data),
                   "--task", "PREDICT_LTV", "--out", str(tmp_path / f"out_{name}"),
                   "--quiet") == 0
        manifests[name] = json.loads((tmp_path / f"out_{name}" / "manifest.json").read_text())
    assert ((tmp_path / "out_lf" / "PREDICT_LTV.csv").read_bytes()
            == (tmp_path / "out_crlf" / "PREDICT_LTV.csv").read_bytes())
    pins = {name: manifest.pop("table_sha256") for name, manifest in manifests.items()}
    assert manifests["lf"] == manifests["crlf"]
    assert pins["crlf"] == {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in crlf.glob("*.csv")}
    assert set(pins["crlf"].values()).isdisjoint(pins["lf"].values())


def _count_key_sorts(monkeypatch):
    """Each entity's count of the key sorts that ``Derivations.key_rank``
    makes, a request it answers from its cache not counted."""
    from collections import Counter
    from cmml.engine import Derivations
    calls = Counter()
    key_rank = Derivations.key_rank

    def counting(self, entity):
        calls[entity] += entity not in self._key_rank
        return key_rank(self, entity)

    monkeypatch.setattr(Derivations, "key_rank", counting)
    return calls


def test_evaluate_sorts_each_relationships_partners_once(tmp_path, monkeypatch, capsys):
    calls = _count_key_sorts(monkeypatch)
    assert run(*_chain_evaluate(tmp_path)) == 0
    # LINE's groups per ORDER (CONTAINS), ORDER's per CUSTOMER (PLACES), and
    # the emitted dataset's row order
    assert calls == {"LINE": 1, "ORDER": 1, "CUSTOMER": 1}


def test_flatten_sorts_each_entity_by_key_once_and_prints_no_cell(tmp_path, monkeypatch):
    """flatten orders ds0's rows by each table's one key sort, the one the
    partner groups use: no cell but a key's is printed to order them."""
    from test_golden import CHAIN_DATA, CHAIN_SCHEMA, _inline
    calls = _count_key_sorts(monkeypatch)
    schema, data, task = _inline(CHAIN_SCHEMA, CHAIN_DATA)(tmp_path)
    assert run("flatten", "--schema", str(schema), "--data-dir", str(data), "--task", task,
               "--out", str(tmp_path / "out"), "--quiet") == 0
    # LINE's and ORDER's key sorts serve both the partner groups and the join
    # order; CUSTOMER's starts the join index
    assert calls == {"LINE": 1, "ORDER": 1, "CUSTOMER": 1}


def test_naive_join_keeps_a_key_that_a_derivation_reads(tmp_path, capsys):
    """A derivation consumes the target entity's key, but ds0 keeps it, as
    the prepared dataset does: evaluate matches the two arms' rows by it."""
    from test_golden import CONSUMED_KEY_DATA, CONSUMED_KEY_SCHEMA, _inline
    schema, data, task = _inline(CONSUMED_KEY_SCHEMA, CONSUMED_KEY_DATA)(tmp_path)
    common = ["--schema", str(schema), "--data-dir", str(data), "--task", task, "--quiet"]
    assert run("evaluate", *common, "--folds", "2", "--json") == 0
    assert json.loads(capsys.readouterr().out)
    assert run("flatten", *common, "--out", str(tmp_path / "f")) == 0
    header = (tmp_path / "f" / "ds0.csv").read_text().splitlines()[0]
    assert header == "P_pk,P_y,P_age,C_ck,C_v,C_pk"


# ---------------------------------------------------------------------------
# Text diagnostics: at most five of a kind


def test_text_diagnostics_capped_per_code(tmp_path, capsys):
    # 20 customers without a dob: null YOUNG membership and null applicability
    common = _predicate_case(tmp_path, "years_between(dob, today()) < 40")
    rows = "".join(f"n{i:02d},,5,\n" for i in range(20))
    (tmp_path / "data" / "CUSTOMER.csv").write_text("cust_id,dob,spend,pension\n" + rows)
    (tmp_path / "data" / "ORDER.csv").write_text("order_id,total,cust_id\n")
    assert run("validate", *common) == 0
    err = capsys.readouterr().err.splitlines()
    membership = [f"warning: membership-null: CUSTOMER: row {i} membership predicate for YOUNG "
                  f"is null; treated as non-member [CUSTOMER:{i}]" for i in range(1, 6)]
    applicability = [f"warning: applicability-null: CUSTOMER: row {i}: applicable_when of "
                     f"'pension' is null; cell classified unknown [CUSTOMER:{i}]"
                     for i in range(1, 6)]
    assert err[:12] == [
        *membership, "… and 15 more membership-null (validate --json lists all)",
        *applicability, "… and 15 more applicability-null (validate --json lists all)"]
    assert not any(line.startswith("warning: ") for line in err[12:])
    assert run("validate", *common, "--json") == 0
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["code"] for d in diags] == ["membership-null"] * 20 + ["applicability-null"] * 20


def test_numeric_and_date_keys_are_never_features(tmp_path, capsys):
    # DAY's date key, TILL's numeric key and TILL's date foreign key name
    # rows: no summary reads them, and evaluate's design leaves them out of
    # both arms; ds0.csv keeps them, as a plain join would
    from cmml import binder, dsl, eer, engine, evalkit
    from test_golden import KEY_ORDER_DATA, KEY_ORDER_SCHEMA, _inline
    schema, data, task = _inline(KEY_ORDER_SCHEMA, KEY_ORDER_DATA)(tmp_path)
    common = ["--schema", str(schema), "--data-dir", str(data), "--task", task, "--quiet"]
    assert run("prepare", *common, "--out", str(tmp_path / "prep")) == 0
    assert run("flatten", *common, "--out", str(tmp_path / "flat")) == 0
    header = (tmp_path / "prep" / "T.csv").read_text().splitlines()[0].split(",")
    assert header == ["SHOP_code", "SHOP_region", "DAY_count", "DAY_visitors_mean",
                      "DAY_TILL_count_mean", "DAY_TILL_amount_mean_mean", "SHOP_sales"]
    keys = {"SHOP.code", "DAY.day", "DAY.code", "TILL.till_no", "TILL.day"}
    manifest = json.loads((tmp_path / "prep" / "manifest.json").read_text())
    for record in manifest["datasets"]["T"]["features"]:
        if record["role"] != "key":
            assert not keys & set(record["source_attributes"]), record["name"]
    ds0 = (tmp_path / "flat" / "ds0.csv").read_text().splitlines()[0].split(",")
    assert {"DAY_day", "DAY_code", "TILL_till_no", "TILL_day"} <= set(ds0)

    parsed = eer.rewrite_many_to_many(dsl.parse_schema_file(str(schema))[0])
    bundle, rep = binder.load_bundle(parsed, data)
    assert rep.ok, rep.render()
    bound = binder.bind(parsed, bundle, CLOCK)
    binding = eer.resolve_target(parsed, parsed.task(task))
    flat = engine.flatten_naive(bound, binding, engine.Derivations(bound, CLOCK))
    design = evalkit.OneHotDesign(flat.table, flat.target_column)
    assert design.n_numeric == 2  # DAY_visitors and TILL_amount; not TILL_till_no
