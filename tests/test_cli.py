import json

import pytest

from cmml import cli, planner
from conftest import EXAMPLE_DATA, EXAMPLE_SCHEMA


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")


def run(*argv):
    return cli.main(list(argv))


def test_usage_error_exit_2(capsys):
    assert run() == 2
    assert run("prepare") == 2  # missing required flags
    assert run("nonsense") == 2


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


def test_unknown_task_exit_1(capsys):
    assert run("plan", "--schema", str(EXAMPLE_SCHEMA), "--task", "NOPE") == 1


def test_plan_text(capsys):
    assert run("plan", "--schema", str(EXAMPLE_SCHEMA),
               "--task", "PREDICT_LTV", "--quiet") == 0
    out = capsys.readouterr().out
    assert "PREDICT_LTV" in out and "Guideline 4" in out


def test_plan_json_round_trip(capsys):
    assert run("plan", "--schema", str(EXAMPLE_SCHEMA),
               "--task", "PREDICT_LTV", "--json", "--quiet") == 0
    text = capsys.readouterr().out
    plan = planner.plan_from_json(text)
    assert plan.task == "PREDICT_LTV"
    assert planner.plan_from_json(planner.plan_to_json(plan)) == plan


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
