"""Fail unless a perfbench result line reports a correct run in which no
command failed. The result line is the last line of perfbench's stdout.

Usage: python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \
           | python .github/scripts/check_bench.py
"""

import json
import sys


def main() -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no result line")
        return 1
    result = json.loads(lines[-1])
    print(f"correct={result.get('correct')} failed={result.get('failed')}"
          f"/{result.get('attempted')}")
    return 0 if result.get("correct") is True and result.get("failed") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
