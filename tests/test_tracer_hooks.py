"""The benchmark tracer's hooks (``perfbench/tracer.py``) still fit the
program: every name it patches exists, the spans the benchmark reads are
recorded, and uninstalling puts every original back. A renamed or removed
hook then fails here, not only in a traced benchmark run."""

import pytest

from cmml import cli
from conftest import CLOCK, REPO
from test_golden import CHAIN_DATA, CHAIN_SCHEMA, _inline


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("CMML_TODAY", CLOCK.isoformat())


# the chain case's plan: four derived attributes, two summary edges
CHAIN_STEPS = {"derive_attr": 4, "summarize_child": 2, "impute_columns": 1, "emit_dataset": 1}


@pytest.mark.parametrize("command, span", [("validate", "binder.cardinality_report"),
                                           ("prepare", "planner.compile_plan"),
                                           ("flatten", "engine.flatten_naive"),
                                           ("evaluate", "evalkit.compare_datasets")])
def test_tracer_records_spans_and_restores_every_patch(command, span, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from tracer import Tracer, layer_metrics

    schema, data, task = _inline(CHAIN_SCHEMA, CHAIN_DATA)(tmp_path)  # 7 keys, 5 folds
    out = tmp_path / "out"
    args = [command, "--schema", str(schema), "--data-dir", str(data), "--quiet"]
    if command != "validate":
        args += ["--task", task]
    if command in ("prepare", "flatten"):
        args += ["--out", str(out)]
    tracer = Tracer(command)
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert cli.main(args) == 0
    finally:
        tracer.uninstall()
    assert {s[0] for s in tracer.spans} >= {"binder.bind", span}
    metrics = layer_metrics(tracer.report(0.0, 1.0))
    if command == "prepare":
        steps = {k.rsplit(".", 1)[1]: v for k, v in metrics.items()
                 if k.startswith("planner.compile_plan.steps.")}
        assert steps == CHAIN_STEPS
        assert metrics["engine.csv_write_outputs.bytes"] == sum(
            p.stat().st_size for p in out.glob("*.csv")) > 0
    if command in ("flatten", "evaluate"):
        assert metrics["engine.flatten_naive.rows_out"] > metrics["engine.flatten_naive.roots"] > 0
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still patched"
