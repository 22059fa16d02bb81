"""Command-line entry point.

Subcommands: validate, plan, prepare, flatten, evaluate, generate.
Exit codes: 0 success, 1 validation/data errors, 2 usage errors.
Logs go to stderr; machine-readable output (``--json``) is always JSON.
The ``CMML_TODAY=YYYY-MM-DD`` environment variable pins the expression
clock (``today()``) for reproducible derived dates.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import os
import sys
from pathlib import Path

from . import binder, dsl, eer, engine, evalkit, planner
from .diagnostics import Report, not_utf8
from .tabular import write_csv
from .values import parse_date

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _clock() -> _dt.date:
    raw = os.environ.get("CMML_TODAY")
    if not raw:
        return _dt.date.today()
    try:
        return parse_date(raw)
    except ValueError as exc:
        raise UsageError(f"CMML_TODAY must be YYYY-MM-DD: {exc}")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _load_schema(args) -> eer.EerSchema:
    schema, rep = dsl.parse_schema_file(args.schema)
    _emit_report(args, rep)
    if not rep.ok:
        raise DataError(f"schema {args.schema} has errors")
    vrep = eer.validate_schema(schema)
    _emit_report(args, vrep)
    if not vrep.ok:
        raise DataError(f"schema {args.schema} failed validation")
    return eer.rewrite_many_to_many(schema)


def _emit_report(args, rep: Report) -> None:
    args.reported.diagnostics += rep.diagnostics
    if rep.diagnostics and not getattr(args, "quiet", False):
        print(rep.render(), file=sys.stderr)


def _bind(args, schema: eer.EerSchema, clock: _dt.date) -> binder.BoundModel:
    bundle, rep = binder.load_bundle(schema, args.data_dir)
    _emit_report(args, rep)
    if not rep.ok:
        raise DataError(f"failed to load tables from {args.data_dir}")
    bound = binder.bind(schema, bundle, clock)
    _emit_report(args, bound.report)
    return bound


def _get_task(schema: eer.EerSchema, name: str) -> eer.TaskDecl:
    task = schema.task(name)
    if task is None:
        known = ", ".join(t.name for t in schema.tasks) or "(none)"
        raise DataError(f"task {name!r} not declared in schema; known tasks: {known}")
    return task


def _options(args, task: eer.TaskDecl) -> planner.PlanOptions:
    if args.impute not in (None, "mean_mode", "none") and not args.impute.startswith("constant:"):
        raise UsageError(f"--impute must be mean_mode, none or constant:<value>, got {args.impute!r}")
    if args.holdout is not None and not (math.isfinite(args.holdout) and 0 <= args.holdout < 1):
        raise UsageError(f"--holdout must be a fraction with 0 <= h < 1, got {args.holdout!r}")
    value_range = getattr(args, "range", None)  # evaluate's own options
    if value_range is not None and not (math.isfinite(value_range) and value_range > 0):
        raise UsageError(f"--range must be finite and > 0, got {value_range!r}")
    if getattr(args, "folds", 2) < 2:
        raise UsageError(f"--folds must be at least 2, got {args.folds}")
    agg = tuple(a.strip() for a in args.agg.split(",")) if args.agg else None
    options = planner.PlanOptions.from_task(task, agg_set=agg, top_k=args.top_k,
                                            impute=args.impute, seed=args.seed,
                                            holdout=args.holdout)
    # the task's own values passed schema validation, so a problem is the option's
    for code, message in eer.summary_problems(options.agg_set, options.top_k):
        flag = "--top-k" if code == "bad-top-k" else "--agg"
        raise UsageError(f"{flag}: {message}")
    return options


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    try:
        schema = _load_schema(args)
        bound = _bind(args, schema, _clock())
    except DataError:
        if args.json:  # every diagnostic reported before the error
            print(json.dumps({"ok": False, "diagnostics": args.reported.to_dicts(),
                              "cardinalities": []}, indent=2, sort_keys=True))
        raise
    cards = binder.cardinality_report(bound)
    if args.json:
        out = {
            "ok": bound.ok,
            "diagnostics": bound.report.to_dicts(),
            "cardinalities": [
                {"relationship": c.relationship, "declared_min": c.declared_min,
                 "declared_max": c.declared_max, "observed_min": c.observed_min,
                 "observed_max": c.observed_max, "conformant": c.conformant,
                 "violations": c.violations}
                for c in cards
            ],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for c in cards:
            status = "ok" if c.conformant else f"VIOLATED ({len(c.violations)} rows)"
            _log(args, f"{c.relationship}: declared ({c.declared_min},{c.declared_max}) "
                       f"observed ({c.observed_min},{c.observed_max}) {status}")
    if not bound.ok:
        _log(args, "validation failed")
        return EXIT_DATA
    _log(args, "validation ok")
    return EXIT_OK


def cmd_plan(args) -> int:
    schema = _load_schema(args)
    task = _get_task(schema, args.task)
    try:
        plan = planner.compile_plan(schema, task, _options(args, task))
    except planner.PlanError as exc:
        raise DataError(str(exc))
    if args.json:
        print(planner.plan_to_json(plan))
    else:
        print(planner.explain_plan(plan))
    return EXIT_OK


def cmd_prepare(args) -> int:
    schema = _load_schema(args)
    task = _get_task(schema, args.task)
    options = _options(args, task)
    clock = _clock()
    bound = _bind(args, schema, clock)
    if not bound.ok:
        raise DataError("data errors prevent preparation")
    try:
        plan = planner.compile_plan(schema, task, options)
        datasets, manifest = engine.prepare(plan, bound, engine.Derivations(bound, clock),
                                            out_dir=args.out)
    except planner.PlanError as exc:
        raise DataError(str(exc))
    for ds in datasets:
        _log(args, f"wrote {Path(args.out) / (ds.name + '.csv')} "
                   f"({ds.table.row_count} rows, {len(ds.table.columns)} columns)")
    _log(args, f"wrote {Path(args.out) / 'manifest.json'}")
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_flatten(args) -> int:
    schema = _load_schema(args)
    task = _get_task(schema, args.task)
    clock = _clock()
    bound = _bind(args, schema, clock)
    if not bound.ok:
        raise DataError("data errors prevent flattening")
    binding = eer.resolve_target(schema, task)
    flat = engine.flatten_naive(bound, binding, engine.Derivations(bound, clock))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "ds0.csv"
    write_csv(flat.table, path)
    _log(args, f"wrote {path} ({flat.table.row_count} rows, {len(flat.table.columns)} columns)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    schema = _load_schema(args)
    task = _get_task(schema, args.task)
    kind = schema.entity(task.target_entity).attr(task.target_attr).kind
    if kind != "numeric":
        rep = Report()
        rep.error("non-numeric-target", f"target {task.target_entity}.{task.target_attr} is "
                  f"{kind}; evaluate fits a linear regression", f"task {task.name}")
        _emit_report(args, rep)
        raise DataError(f"task {task.name}: evaluate needs a numeric target")
    options = _options(args, task)
    clock = _clock()
    bound = _bind(args, schema, clock)
    if not bound.ok:
        raise DataError("data errors prevent evaluation")
    # both arms read one evaluation of every derived attribute
    derivations = engine.Derivations(bound, clock)
    try:
        plan = planner.compile_plan(schema, task, options)
        datasets, warnings = engine.execute(plan, bound, derivations)
    except planner.PlanError as exc:
        raise DataError(str(exc))
    _emit_report(args, warnings)
    if len(datasets) != 1:
        raise DataError("evaluate requires a single-dataset task (no subtype split)")
    tds = datasets[0]
    flat = engine.flatten_naive(bound, plan.binding, derivations)
    if args.range is not None:
        value_range = args.range
    else:
        ti = tds.table.column_index(tds.target_column)
        y = tds.table.cells[ti]
        vals = y.values[y.null == 0].tolist()
        if not vals or max(vals) == min(vals):
            raise DataError("cannot infer target range; pass --range")
        value_range = float(max(vals) - min(vals))
    try:
        report = evalkit.compare_datasets(flat, tds, value_range, folds=args.folds,
                                          seed=args.seed or 0)
    except ValueError as exc:
        raise DataError(str(exc))
    # regression_metrics warns only of constant actuals; the location names the arm
    metric_warnings = Report()
    for arm in ("ds0", "tds"):
        for message in getattr(report, arm).warnings:
            metric_warnings.warning("constant-actuals", message, arm)
    _emit_report(args, metric_warnings)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.spec:
        try:
            spec = evalkit.SynthSpec.from_dict(
                json.loads(Path(args.spec).read_bytes().decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise DataError(f"encoding: {not_utf8(args.spec, exc)}")
        except (TypeError, ValueError) as exc:  # malformed JSON is a ValueError too
            raise DataError(f"bad-spec: {args.spec}: {exc}")
    else:
        spec = evalkit.SynthSpec()
    bundle = evalkit.synth_generate(spec, args.seed if args.seed is not None else 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in sorted(bundle.tables.items()):
        path = out / f"{name}.csv"
        write_csv(table, path)
        _log(args, f"wrote {path} ({table.row_count} rows)")
    schema_path = out / "synthetic.cmml"
    schema_path.write_text(evalkit.SYNTH_SCHEMA_TEXT, encoding="utf-8")
    _log(args, f"wrote {schema_path}")
    if args.json:
        print(json.dumps({"spec": spec.__dict__ | {"channels": list(spec.channels)},
                          "truth": spec.truth(),
                          "tables": {n: t.row_count for n, t in bundle.tables.items()}},
                         indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, schema=False, data=False, task=False,
                out=False, tuning=False, seed=True, as_json=True) -> None:
    if schema:
        p.add_argument("--schema", required=True, help="path to the .cmml schema file")
    if data:
        p.add_argument("--data-dir", required=True, help="directory of <ENTITY>.csv tables")
    if task:
        p.add_argument("--task", required=True, help="task name declared in the schema")
    if out:
        p.add_argument("--out", required=True, help="output directory")
    if tuning:
        p.add_argument("--agg", default=None,
                       help="comma-separated aggregate set (default: task declaration, "
                            "else count,mean,sum,min,max)")
        p.add_argument("--top-k", type=int, default=None,
                       help="per-category count limit for nominal summaries (default 20)")
        p.add_argument("--impute", default=None,
                       help="imputation strategy: mean_mode, none, or constant:<value>")
        p.add_argument("--holdout", type=float, default=None,
                       help="fraction of rows written to a separate holdout CSV (default 0)")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="random seed (generate/evaluate)")
    if as_json:
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON to stdout")
    p.add_argument("--quiet", action="store_true", help="suppress log output")


def _evaluate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds (default 5)")
    p.add_argument("--range", type=float, default=None,
                   help="target range for normalized RMSE (default: observed range)")


def _generate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default=None, help="path to a JSON generator spec")


# name -> (help, command, the common options it takes, a function adding its own)
SUBCOMMANDS = {
    "validate": ("check a schema and data against each other", cmd_validate,
                 dict(schema=True, data=True, seed=False), None),
    "plan": ("compile and print a transformation plan", cmd_plan,
             dict(schema=True, task=True, tuning=True), None),
    "prepare": ("produce training dataset(s) and manifest", cmd_prepare,
                dict(schema=True, data=True, task=True, out=True, tuning=True), None),
    "flatten": ("produce the naive joined dataset (ds0.csv)", cmd_flatten,
                dict(schema=True, data=True, task=True, out=True, seed=False, as_json=False), None),
    "evaluate": ("out-of-sample comparison of naive vs prepared data", cmd_evaluate,
                 dict(schema=True, data=True, task=True, tuning=True), _evaluate_options),
    "generate": ("write a seeded synthetic schema + tables", cmd_generate,
                 dict(out=True), _generate_options),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``only`` that one. Its usage
    line still lists them all, so its messages read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="cmml",
        description="Schema-driven preparation of relational CSV data into "
                    "flat, model-ready training datasets with lineage manifests.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar=None if only is None else "{%s}" % ",".join(SUBCOMMANDS))
    for name, (help_, fn, common, own) in SUBCOMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_)
            _add_common(p, **common)
            if own is not None:
                own(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h, no arguments or an unknown subcommand need every subcommand's parser
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.reported = Report()  # every diagnostic the command reports
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
