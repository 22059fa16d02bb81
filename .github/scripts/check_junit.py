"""Fail unless a pytest junit report shows exactly the expected outcome:
every test passes except acceptance criterion 3, which must fail.

Criterion 3's reference cell contradicts the metric's own definition, so
that test stays failing on purpose; if it starts passing, its data or
tolerance changed and the job fails too.

Usage: python .github/scripts/check_junit.py junit.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = ("tests.test_acceptance", "test_criterion_03_metric_formula_cells")


def outcomes(path: str) -> dict[tuple[str, str], str]:
    out = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        status = "passed"
        for kind in ("failure", "error", "skipped"):
            if case.find(kind) is not None:
                status = kind
                break
        out[(case.get("classname", ""), case.get("name", ""))] = status
    return out


def main(path: str) -> int:
    results = outcomes(path)
    problems = [f"{cls}::{name}: {status}" for (cls, name), status in sorted(results.items())
                if status in ("failure", "error") and (cls, name) != EXPECTED_FAILURE]
    expected = results.get(EXPECTED_FAILURE)
    if expected != "failure":
        problems.append(f"{'::'.join(EXPECTED_FAILURE)}: expected failure, got {expected or 'missing'}")
    for line in problems:
        print(line)
    print(f"{len(results)} test cases, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
