"""Fail unless a perfbench result line reports a correct run in which no
command failed and the run's outputs match the values pinned below for seed
1. The result line is the last line of perfbench's stdout.

Usage: python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \
           | python .github/scripts/check_bench.py

Every run pins the ``digest <workload> prepare sha256=…`` line, the digest of
``prepare``'s CSVs and ``manifest.json``. The manifest pins each input file
by the SHA-256 of its bytes, so the digest also moves if the workload
generators write their CSVs differently. An untraced run also pins
``evaluate_tds_nrmse``, compared bit for bit. A change that moves either has
changed the program's output on real-sized data.
"""

import json
import sys

PINS = {
    "ltv_eval": {
        "prepare_sha256": "54611e4634bf95810d2664e2efbfa24fff2da1a5812b32572ed5022b8e81ed7d",
        "evaluate_tds_nrmse": 0.0534886286418856,
    },
    "star_split": {
        "prepare_sha256": "d7cddba86975e62bab3a12d1cd6b6cf9d28a868759c7f82b216acb55e64fccc9",
        "evaluate_tds_nrmse": 0.05073457657445215,
    },
    "chain_derive": {
        "prepare_sha256": "9636ed0d592ea4afbfc29feff08bf297a248a7cebab04c25cc1ed05be7fe8792",
        "evaluate_tds_nrmse": 0.029317325144780033,
    },
}


def pin_problems(lines: list[str], metrics: dict) -> list[str]:
    """Where the run's prepare digest or tds nRMSE differs from its pins."""
    digests = [line.split() for line in lines if line.startswith("digest ")]
    if len(digests) != 1:
        return [f"expected one prepare digest line, found {len(digests)}"]
    _, workload, command, digest = digests[0]
    pins = PINS.get(workload)
    if pins is None or command != "prepare":
        return [f"no pins for {workload} {command}"]
    problems = []
    if digest != f"sha256={pins['prepare_sha256']}":
        problems.append(f"{workload} prepare {digest}, pinned sha256={pins['prepare_sha256']}")
    nrmse = metrics.get("evaluate_tds_nrmse", {}).get("value")
    if nrmse is not None and nrmse != pins["evaluate_tds_nrmse"]:
        problems.append(f"{workload} evaluate_tds_nrmse {nrmse!r}, "
                        f"pinned {pins['evaluate_tds_nrmse']!r}")
    return problems


def main() -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no result line")
        return 1
    result = json.loads(lines[-1])
    print(f"correct={result.get('correct')} failed={result.get('failed')}"
          f"/{result.get('attempted')}")
    problems = pin_problems(lines[:-1], result.get("metrics", {}))
    for p in problems:
        print(f"pin: {p}")
    ok = result.get("correct") is True and result.get("failed") == 0 and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
