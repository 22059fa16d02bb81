"""Layered benchmark for the ``cmml`` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ltv_eval --seed 1 --seconds 35 --trace 0

Set-up generates the workload's schema and CSVs from the seed and writes
them under ``.bench_work/<workload>/``; untraced runs repeat it at the start
of every later cycle to sample its time. The run repeats a cycle of
``validate``, ``prepare``, ``flatten`` and ``evaluate`` until ``--seconds``
are spent (at least ``MIN_CYCLES`` cycles). Each command is
``cmml.cli.main([...])`` in a fresh child Python, timed inside the child
around ``cli.main`` only; peak RSS comes from ``os.wait4`` on that child.
One child runs at a time. Every output is checked against oracles computed
from the generated rows (``workloads.py``), and the ``prepare`` outputs
must hash identically in every cycle.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
times as the mean over the cycles (see ``typical_time``), peak memory as
the median. With ``--trace 1`` each command runs once untraced and once
traced per cycle (alternating which goes first). The line then reports the
per-layer metrics of the traced runs (times as the mean, counts as the
median) and the tracing overhead; the spans are written to
``.bench_work/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # write nothing outside .bench_work/
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracer import layer_metrics  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
COMMANDS = ("validate", "prepare", "flatten", "evaluate")
MIN_CYCLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this

END_TO_END = {
    "setup_s": "s",
    "validate_s": "s",
    "prepare_s": "s",
    "flatten_s": "s",
    "evaluate_s": "s",
    "prepare_peak_rss_mb": "MB",
    "flatten_peak_rss_mb": "MB",
    "evaluate_peak_rss_mb": "MB",
    "evaluate_tds_nrmse": "ratio",
}

_EXPR_BY = {"validate": ("binder.bind",),
            "prepare": ("binder.bind", "engine.execute"),
            "flatten": ("binder.bind", "engine.flatten_naive"),
            "evaluate": ("binder.bind", "engine.execute", "engine.flatten_naive")}
_COMMON = [("tabular.read_csv", ("s", "rows", "bytes")),
           ("binder.load_bundle", ("self_s",)),
           ("binder.bind", ("s", "null_cells")),
           ("tabular.Table.column_index", ("calls", "s"))]
_PLAN_STEPS = ("derive_attr", "summarize_child", "join_one_to_one", "subtype_split",
               "impute_columns", "emit_dataset")
_HASH = ("engine.csv_hash_inputs", ("s", "bytes", "reserialized_ratio"))
_FLAT = ("engine.flatten_naive", ("self_s", "rows_out", "rows_per_root"))
_LAYER_SPANS = {
    "validate": _COMMON + [("binder.cardinality_report", ("s",))],
    "prepare": _COMMON + [
        ("planner.compile_plan", ("s",) + tuple(f"steps.{k}" for k in _PLAN_STEPS)),
        ("engine.execute", ("self_s",)),
        ("engine.build_frames", ("s", "rows")),
        _HASH,
        ("engine.csv_write_outputs", ("s", "bytes"))],
    "flatten": _COMMON + [
        ("engine.build_frames", ("s", "rows")),
        _FLAT,
        ("tabular.write_csv", ("s", "bytes"))],
    "evaluate": _COMMON + [
        ("planner.compile_plan", ("s",)),
        ("engine.execute", ("self_s",)),
        ("engine.build_frames", ("s", "rows")),
        _HASH,
        _FLAT,
        ("evalkit.compare_datasets", ("self_s",)),
        ("evalkit.OneHotDesign.fit", ("s", "rows")),
        ("evalkit.OneHotDesign.transform", ("s", "rows")),
        ("evalkit.ols_fit", ("s",)),
        ("evalkit.ols_predict", ("s",)),
        ("evalkit.wilcoxon_signed_rank", ("s",))],
}


def _unit(stat: str) -> str:
    if stat in ("s", "self_s"):
        return "s"
    if stat == "bytes":
        return "bytes"
    if stat in ("reserialized_ratio", "rows_per_root"):
        return "ratio"
    return "count"


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {"cli.import.s": "s"}
    for cmd in COMMANDS:
        for span, stats in _LAYER_SPANS[cmd]:
            for stat in stats:
                out[f"{cmd}.{span}.{stat}"] = _unit(stat)
        for stat in ("calls", "s"):
            out[f"{cmd}.expr.eval_expr.{stat}"] = _unit(stat)
        for parent in _EXPR_BY[cmd]:
            for stat in ("calls", "s"):
                out[f"{cmd}.expr.eval_expr.{parent}.{stat}"] = _unit(stat)
        out[f"{cmd}.cli.main.s"] = "s"
        out[f"{cmd}.trace_overhead_s"] = "s"
    return out


def layer_values(cmd: str, trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced command; absent spans count as 0."""
    raw = layer_metrics(trace)
    if cmd in ("prepare", "evaluate"):
        read = raw.get("tabular.read_csv.bytes", 0.0)
        raw["engine.csv_hash_inputs.reserialized_ratio"] = (
            raw.get("engine.csv_hash_inputs.bytes", 0.0) / read if read else 0.0)
    if cmd in ("flatten", "evaluate"):
        roots = raw.get("engine.flatten_naive.roots", 0.0)
        raw["engine.flatten_naive.rows_per_root"] = (
            raw.get("engine.flatten_naive.rows_out", 0.0) / roots if roots else 0.0)
    out = {}
    prefix = f"{cmd}."
    for name in per_layer_names():
        if name.startswith(prefix) and not name.endswith("trace_overhead_s"):
            out[name] = raw.get(name[len(prefix):], 0.0)
    return out


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    """Outcome of one command run in its own process."""
    rc: Optional[int]
    error: Optional[str]
    main_s: float
    import_s: float
    stdout: str
    peak_rss_mb: float
    trace: Optional[dict]


def run_child(work: Path, cli_args: list[str], trace: bool, deadline: float) -> Child:
    result_path = work / "child.json"
    err_path = work / "child.stderr"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, CMML_TODAY=W.CLOCK, PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
           "1" if trace else "0", "--", *cli_args]
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
    # Wait without reaping first, so the timer can never signal a reused pid.
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        killer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0  # KiB on Linux
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return Child(None, f"child exited {proc.returncode}: {tail}", math.nan, math.nan, "",
                     peak, None)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    return Child(res["rc"], res["error"], res["main_s"], res["import_s"], res["stdout"],
                 peak, res.get("trace"))


# ---------------------------------------------------------------------------
# Output checks


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode("utf-8") + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Independent oracles for each command's output. A verdict is cached by
    the digest of the output it was computed from."""

    def __init__(self, wl: W.Workload, oracle: W.PrepareCheck, entities: int):
        self.wl = wl
        self.oracle = oracle
        self.flat_rows = W.expected_flat_rows(wl)
        self.entities = entities
        self.fanouts = W.expected_fanouts(wl)
        self.prepare_digest = None
        self.nrmse = None
        self._verdicts: dict[str, list[str]] = {}

    def validate(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        errors = [] if doc["ok"] else ["validate reported errors"]
        seen = {c["relationship"]: (c["observed_min"], c["observed_max"])
                for c in doc["cardinalities"]}
        if seen != self.fanouts:
            errors.append(f"observed fan-outs {seen} differ from the generated {self.fanouts}")
        return errors

    def prepare(self, out_dir: Path) -> list[str]:
        files = [p for p in out_dir.iterdir() if p.suffix in (".csv", ".json")]
        digest = _digest(files)
        errors = []
        if self.prepare_digest is None:
            self.prepare_digest = digest
            print(f"digest {self.wl.name} prepare sha256={digest}", flush=True)
        elif digest != self.prepare_digest:
            errors.append(f"prepare output digest {digest} differs from {self.prepare_digest}")
        if digest not in self._verdicts:
            json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            tables = {p.stem: _read_csv(p) for p in files if p.suffix == ".csv"}
            self._verdicts[digest] = self.oracle(tables)
        return errors + self._verdicts[digest]

    def flatten(self, out_dir: Path) -> list[str]:
        path = out_dir / "ds0.csv"
        digest = _digest([path])
        if digest not in self._verdicts:
            with open(path, newline="", encoding="utf-8") as fh:
                n = sum(1 for _ in csv.reader(fh)) - 1
            self._verdicts[digest] = ([] if n == self.flat_rows else
                                      [f"flatten wrote {n} rows, brute-force join gives "
                                       f"{self.flat_rows}"])
        return self._verdicts[digest]

    def evaluate(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        errors = []
        if doc["n_entities"] != self.entities:
            errors.append(f"evaluate scored {doc['n_entities']} entities, expected {self.entities}")
        if doc["folds"] != 5:
            errors.append(f"evaluate used {doc['folds']} folds")
        nrmse = doc["tds"]["nrmse"]
        if not (isinstance(nrmse, float) and math.isfinite(nrmse) and nrmse > 0):
            errors.append(f"evaluate tds nrmse is {nrmse!r}")
        elif self.nrmse is None:
            self.nrmse = nrmse
        elif nrmse != self.nrmse:
            errors.append(f"evaluate tds nrmse {nrmse!r} differs from {self.nrmse!r}")
        return errors


# ---------------------------------------------------------------------------
# The run


def command_args(cmd: str, wl: W.Workload, schema: Path, data: Path, work: Path) -> list[str]:
    base = [cmd, "--schema", str(schema), "--data-dir", str(data), "--quiet"]
    if cmd == "validate":
        return base + ["--json"]
    base += ["--task", wl.tasks[cmd]]
    if cmd == "evaluate":
        return base + ["--folds", "5", "--range", repr(wl.value_range)]
    return base + ["--out", str(work / f"out_{cmd}")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def typical_time(values: list[float]) -> float:
    """Mean of a run's timings. On a shared host a command runs up to about
    2x slower while neighbours contend for the core, in phases of seconds to
    minutes. Over runs of this length the mean moved least from run to run:
    the median and the lower quartile jump between the fast and slow modes
    (see README.md, "Noise")."""
    return statistics.mean(values) if values else math.nan


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    generate, oracle, known_targets = W.WORKLOADS[workload]

    def setup() -> tuple[W.Workload, Path]:
        t0 = time.perf_counter()
        wl = generate(seed)
        schema = W.write_workload(wl, data)
        setup_times.append(time.perf_counter() - t0)
        return wl, schema

    setup_times: list[float] = []
    wl, schema = setup()
    sizes = {name: len(t.rows) for name, t in wl.tables.items()}
    print(f"workload {workload} seed={seed} rows={sizes}", file=sys.stderr)
    checker = Checker(wl, oracle(wl), known_targets(wl))

    attempted = failed = 0
    failures: list[str] = []
    main_s = {(c, t): [] for c in COMMANDS for t in (False, True)}
    rss = {c: [] for c in COMMANDS}
    imports: list[float] = []
    layers: dict[str, list[float]] = {}
    spans = []

    def one(cmd: str, cycle: int, traced: bool) -> None:
        nonlocal attempted, failed
        args = command_args(cmd, wl, schema, data, work)
        if cmd in ("prepare", "flatten"):
            shutil.rmtree(work / f"out_{cmd}", ignore_errors=True)
        child = run_child(work, args, traced, deadline)
        attempted += 1
        if child.error is not None or child.rc != 0:
            errors = [child.error or f"exit code {child.rc}"]
        else:
            try:
                errors = {"validate": lambda: checker.validate(child.stdout),
                          "prepare": lambda: checker.prepare(work / "out_prepare"),
                          "flatten": lambda: checker.flatten(work / "out_flatten"),
                          "evaluate": lambda: checker.evaluate(child.stdout)}[cmd]()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors = [f"unreadable {cmd} output: {exc!r}"]
        if errors:
            failed += 1
            failures.extend(f"{cmd}#{cycle}: {e}" for e in errors)
            return
        main_s[(cmd, traced)].append(child.main_s)
        imports.append(child.import_s)
        if traced:
            for name, v in layer_values(cmd, child.trace).items():
                layers.setdefault(name, []).append(v)
            spans.append({"command_id": f"{cmd}#{cycle}", **child.trace})
        else:
            rss[cmd].append(child.peak_rss_mb)

    # one untimed child first, so the first timed command does not pay for a cold cache
    run_child(work, ["validate", "--schema", str(schema), "--data-dir", str(data), "--quiet"],
              False, deadline)
    measure_start = time.monotonic()
    cycle = 0
    while True:
        t0 = time.monotonic()
        if cycle and not trace:
            setup()  # same seed, same bytes: one more set-up sample per cycle
        for cmd in COMMANDS:
            if trace:
                order = (False, True) if cycle % 2 == 0 else (True, False)
                for traced in order:
                    one(cmd, cycle, traced)
            else:
                one(cmd, cycle, False)
        cycle += 1
        now = time.monotonic()
        if cycle >= MIN_CYCLES and now - measure_start + (now - t0) > seconds:
            break
        if now + (now - t0) > deadline:
            break

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    if trace:
        metrics = {}
        for name, unit in per_layer_names().items():
            if name == "cli.import.s":
                value = typical_time(imports)
            elif name.endswith(".trace_overhead_s"):
                cmd = name.split(".")[0]
                value = typical_time(main_s[(cmd, True)]) - typical_time(main_s[(cmd, False)])
            elif unit == "s":
                value = typical_time(layers.get(name, []))
            else:
                value = median(layers.get(name, []))
            metrics[name] = {"value": value, "unit": unit}
        (work / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        values = {
            "setup_s": typical_time(setup_times),
            **{f"{c}_s": typical_time(main_s[(c, False)]) for c in COMMANDS},
            **{f"{c}_peak_rss_mb": median(rss[c]) for c in ("prepare", "flatten", "evaluate")},
            "evaluate_tds_nrmse": checker.nrmse if checker.nrmse is not None else math.nan,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for c, times in [("setup", setup_times)] + [(c, main_s[(c, False)]) for c in COMMANDS]:
            q1, q2, q3 = quartiles(times)
            print(f"{workload} {c}: mean {typical_time(times):.4f} s, quartiles {q1:.4f} / "
                  f"{q2:.4f} / {q3:.4f} s, n={len(times)}: " + " ".join(f"{t:.4f}" for t in times),
                  file=sys.stderr)
    print(f"{workload}: {cycle} cycles in {time.monotonic() - started:.1f} s, "
          f"{failed}/{attempted} commands failed (fail_ratio {failed / attempted:.4f})",
          file=sys.stderr)
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0  # keep the line valid JSON; correct is already false
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cmml" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'cmml'}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
