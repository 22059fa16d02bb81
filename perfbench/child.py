"""Run one ``cmml`` CLI command in this (fresh) process and report on it.

Usage: python3 child.py SRC_DIR RESULT_JSON TRACE(0|1) -- CLI ARGS...

Times the import of ``cmml.cli`` and the call to ``cli.main`` separately,
captures what the command prints on stdout, and writes one JSON result.
With TRACE=1 the calls into each layer's public functions are wrapped
first (see ``tracer.py``) and the spans go into the result as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, trace = argv[0], Path(argv[1]), argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from cmml import cli
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer(command=cli_args[0])
        tracer.install()

    out = io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(cli_args)
    except Exception:  # reported to the harness as a failed command
        error = traceback.format_exc()
    main_s = time.perf_counter() - t0

    result = {"rc": rc, "error": error, "import_s": import_s, "main_s": main_s,
              "stdout": out.getvalue()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report(t0, t0 + main_s)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
