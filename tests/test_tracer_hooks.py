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


@pytest.mark.parametrize("command, span", [("flatten", "engine.flatten_naive"),
                                           ("evaluate", "evalkit.compare_datasets")])
def test_tracer_records_spans_and_restores_every_patch(command, span, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from tracer import Tracer, layer_metrics

    schema, data, task = _inline(CHAIN_SCHEMA, CHAIN_DATA)(tmp_path)  # 7 keys, 5 folds
    args = [command, "--schema", str(schema), "--data-dir", str(data), "--task", task, "--quiet"]
    if command == "flatten":
        args += ["--out", str(tmp_path / "out")]
    tracer = Tracer(command)
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert cli.main(args) == 0
    finally:
        tracer.uninstall()
    assert {s[0] for s in tracer.spans} >= {"binder.bind", "engine.flatten_naive", span}
    metrics = layer_metrics(tracer.report(0.0, 1.0))
    assert metrics["engine.flatten_naive.rows_out"] > metrics["engine.flatten_naive.roots"] > 0
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still patched"
