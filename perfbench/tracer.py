"""In-memory spans around the calls into each layer of ``cmml``.

The tracer replaces each public function by a wrapper under the name its
caller looks it up by (``binder.read_csv`` for ``load_bundle``'s reads,
``engine.table_to_csv_bytes`` for the manifest hashes, ``cli.write_csv``
for ``flatten``), so no program file changes. A span records its name,
start, end, parent span and a few counts; the child writes them out when
the command ends and ``layer_metrics`` folds them into per-layer numbers.

Two functions run far too often for one record per call:
``Table.column_index`` and the self-recursive ``expr.eval_expr``. For
them only calls and seconds are summed per parent span, and only
outermost ``eval_expr`` calls count. A layer's self time is its span
minus its child spans and these summed calls.
"""

from __future__ import annotations

import os
from time import perf_counter

ROOT = -1          # parent index of spans opened directly under cli.main
IN_EXPR = -2       # parent index of hot calls made inside an eval_expr call


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self.stack: list[int] = []
        self.hot: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.in_expr = False
        self.input_tables: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span(self, name, on_exit=None):
        spans, stack = self.spans, self.stack

        def factory(fn):
            def wrapper(*args, **kwargs):
                rec = [name(args) if callable(name) else name, 0.0, 0.0,
                       stack[-1] if stack else ROOT, {}]
                spans.append(rec)
                stack.append(len(spans) - 1)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if on_exit is not None:
                    on_exit(rec[4], args, result)
                return result
            return wrapper
        return factory

    def _hot(self, name: str, outermost_only: bool):
        stack, hot = self.stack, self.hot

        def factory(fn):
            def wrapper(*args, **kwargs):
                if outermost_only and self.in_expr:
                    return fn(*args, **kwargs)
                parent = IN_EXPR if self.in_expr else (stack[-1] if stack else ROOT)
                if outermost_only:
                    self.in_expr = True
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    if outermost_only:
                        self.in_expr = False
                    acc = hot.get((name, parent))
                    if acc is None:
                        hot[(name, parent)] = [1, dt]
                    else:
                        acc[0] += 1
                        acc[1] += dt
            return wrapper
        return factory

    def install(self) -> None:
        from cmml import binder, cli, engine, evalkit, expr, planner, tabular

        def read_counts(c, args, result):
            table = result[0]
            c["rows"] = len(table.rows) if table is not None else 0
            c["bytes"] = os.path.getsize(args[0])

        def loaded(c, args, result):
            self.input_tables.update(id(t) for t in result[0].tables.values())

        def null_cells(c, args, result):
            c["null_cells"] = sum(r.count(None) for t in args[1].tables.values() for r in t.rows)

        def step_counts(c, args, result):
            for s in result.steps:
                c[f"steps.{s.kind}"] = c.get(f"steps.{s.kind}", 0) + 1

        def frame_rows(c, args, result):
            c["rows"] = sum(len(f.rows) for f in result.values())

        def csv_kind(args):
            return ("engine.csv_hash_inputs" if id(args[0]) in self.input_tables
                    else "engine.csv_write_outputs")

        def csv_bytes(c, args, result):
            c["bytes"] = len(result)

        def flat_rows(c, args, result):
            bound, binding = args[0], args[1]
            c["rows_out"] = len(result.table.rows)
            c["roots"] = len(bound.bundle.table(binding.target_entity).rows)

        def file_bytes(c, args, result):
            c["bytes"] = os.path.getsize(args[1])

        def design_rows(c, args, result):
            c["rows"] = len(args[1])

        span = self._span
        self._patch(binder, "read_csv", span("tabular.read_csv", read_counts))
        self._patch(binder, "load_bundle", span("binder.load_bundle", loaded))
        self._patch(binder, "bind", span("binder.bind", null_cells))
        self._patch(binder, "cardinality_report", span("binder.cardinality_report"))
        self._patch(planner, "compile_plan", span("planner.compile_plan", step_counts))
        self._patch(engine, "execute", span("engine.execute"))
        self._patch(engine, "build_frames", span("engine.build_frames", frame_rows))
        self._patch(engine, "table_to_csv_bytes", span(csv_kind, csv_bytes))
        self._patch(engine, "flatten_naive", span("engine.flatten_naive", flat_rows))
        self._patch(cli, "write_csv", span("tabular.write_csv", file_bytes))
        self._patch(evalkit, "compare_datasets", span("evalkit.compare_datasets"))
        self._patch(evalkit.OneHotDesign, "fit", span("evalkit.OneHotDesign.fit", design_rows))
        self._patch(evalkit.OneHotDesign, "transform",
                    span("evalkit.OneHotDesign.transform", design_rows))
        self._patch(evalkit, "ols_fit", span("evalkit.ols_fit"))
        self._patch(evalkit, "ols_predict", span("evalkit.ols_predict"))
        self._patch(evalkit, "wilcoxon_signed_rank", span("evalkit.wilcoxon_signed_rank"))
        self._patch(tabular.Table, "column_index", self._hot("tabular.Table.column_index", False))
        self._patch(expr, "eval_expr", self._hot("expr.eval_expr", True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def report(self, start: float, end: float) -> dict:
        """Spans with times relative to ``start``; ``end`` closes the root span."""
        return {
            "command": self.command,
            "main_s": end - start,
            "spans": [[n, s - start, e - start, p, c] for n, s, e, p, c in self.spans],
            "hot": [[n, p, calls, secs] for (n, p), (calls, secs) in self.hot.items()],
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Fold one command's spans into ``<span>.<stat>`` numbers: ``s``
    (inclusive), ``self_s``, ``calls`` and each recorded count summed over
    the spans of that name; hot calls also split as
    ``expr.eval_expr.<parent span>.{calls,s}``."""
    spans, hot = trace["spans"], trace["hot"]
    covered = [0.0] * len(spans)
    root_covered = 0.0
    for _, s, e, parent, _ in spans:
        if parent == ROOT:
            root_covered += e - s
        else:
            covered[parent] += e - s
    for _, parent, _, secs in hot:
        if parent == ROOT:
            root_covered += secs
        elif parent >= 0:
            covered[parent] += secs
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    for i, (name, s, e, _, counts) in enumerate(spans):
        add(f"{name}.s", e - s)
        add(f"{name}.self_s", e - s - covered[i])
        add(f"{name}.calls", 1)
        for k, v in counts.items():
            add(f"{name}.{k}", v)
    for name, parent, calls, secs in hot:
        add(f"{name}.calls", calls)
        add(f"{name}.s", secs)
        where = ("cli.main" if parent == ROOT else "in_expr" if parent == IN_EXPR
                 else spans[parent][0])
        add(f"{name}.{where}.calls", calls)
        add(f"{name}.{where}.s", secs)
    main_s = trace["main_s"]
    out["cli.main.s"] = main_s
    out["cli.main.self_s"] = main_s - root_covered
    return out
