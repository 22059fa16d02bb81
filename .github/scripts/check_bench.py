"""Fail unless a perfbench result line reports a correct run in which no
command failed and the run's outputs match the values pinned below for the
run's seed (1 or 2). The result line is the last line of perfbench's stdout.

Usage: python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0 \
           | python .github/scripts/check_bench.py --seed S

Every run pins the ``digest <workload> prepare sha256=…`` line, the digest of
``prepare``'s CSVs and ``manifest.json``. The manifest pins each input file
by the SHA-256 of its bytes, so the digest also moves if the workload
generators write their CSVs differently. An untraced run also pins
``evaluate_tds_nrmse``, compared bit for bit. A change that moves either has
changed the program's output on real-sized data. Seed 2's pins were taken
from the code before the column-at-a-time reader and the binder's partner
index landed, so they check those on data the change was not written
against.

Every run also pins ``evaluate_sha256``, the SHA-256 of what ``evaluate
--json`` prints on the workload perfbench generates from the seed, run
with perfbench's own evaluate arguments in perfbench's child process. That
covers the whole comparison report: both arms' metrics, the signed-rank
test and the fold sizes.
"""

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

# (workload, seed) -> pins
PINS = {
    ("ltv_eval", 1): {
        "prepare_sha256": "54611e4634bf95810d2664e2efbfa24fff2da1a5812b32572ed5022b8e81ed7d",
        "evaluate_tds_nrmse": 0.0534886286418856,
        "evaluate_sha256": "4afb3043f06ca05d732663d68de8a32322507f7b07bd384bbd5ffe0e5d1e5a64",
    },
    ("ltv_eval", 2): {
        "prepare_sha256": "fe7a1f3a9b9b52e2dd98720de60c78dd9a6e0bccbc403b1c8798218094b26dcf",
        "evaluate_tds_nrmse": 0.053665128249557804,
        "evaluate_sha256": "90e88f7912c54e52aef789ba31136678a395daac97376bcc78a8645a841f84a9",
    },
    ("star_split", 1): {
        "prepare_sha256": "d7cddba86975e62bab3a12d1cd6b6cf9d28a868759c7f82b216acb55e64fccc9",
        "evaluate_tds_nrmse": 0.05073457657445215,
        "evaluate_sha256": "a41b4a39ff3dddab4a56028c96e7ac76500aca5abec3ed77b2ca8b5de793ab07",
    },
    ("star_split", 2): {
        "prepare_sha256": "185e5ee35595f59c09db99c876a6492f84c3ad8ab6c3c58332d226d8d5689157",
        "evaluate_tds_nrmse": 0.053205398778791164,
        "evaluate_sha256": "a1bdc6288637f5099960e7758461400dbdb5384a770372d47607c93183d8ceff",
    },
    ("chain_derive", 1): {
        "prepare_sha256": "9636ed0d592ea4afbfc29feff08bf297a248a7cebab04c25cc1ed05be7fe8792",
        "evaluate_tds_nrmse": 0.029317325144780033,
        "evaluate_sha256": "d29ca34cade7d59fe917f1498d389cca887f3b3fe7ded66961d23495a00d8d94",
    },
    ("chain_derive", 2): {
        "prepare_sha256": "c07461cdd6a80f6538a878dc5f18b85c539552c30bc26daa8ad0691c23f7a2d9",
        "evaluate_tds_nrmse": 0.028997972948588094,
        "evaluate_sha256": "657d7aa5262ef0c98088f68a6d40458793e642b9ba7abe04420af9a1e1fa2bd4",
    },
}


def pin_problems(lines: list[str], metrics: dict, seed: int = 1) -> list[str]:
    """Where the run's prepare digest or tds nRMSE differs from its pins."""
    digests = [line.split() for line in lines if line.startswith("digest ")]
    if len(digests) != 1:
        return [f"expected one prepare digest line, found {len(digests)}"]
    _, workload, command, digest = digests[0]
    pins = PINS.get((workload, seed))
    if pins is None or command != "prepare":
        return [f"no pins for {workload} {command} seed {seed}"]
    problems = []
    if digest != f"sha256={pins['prepare_sha256']}":
        problems.append(f"{workload} prepare {digest}, pinned sha256={pins['prepare_sha256']}")
    nrmse = metrics.get("evaluate_tds_nrmse", {}).get("value")
    if nrmse is not None and nrmse != pins["evaluate_tds_nrmse"]:
        problems.append(f"{workload} evaluate_tds_nrmse {nrmse!r}, "
                        f"pinned {pins['evaluate_tds_nrmse']!r}")
    return problems


def evaluate_digest(workload: str, seed: int) -> str:
    """SHA-256 of the stdout of ``evaluate --json`` on the workload generated
    from the seed, written to a temporary directory."""
    sys.path.insert(0, str(PERFBENCH))
    import run as bench  # perfbench/run.py

    wl = bench.W.WORKLOADS[workload][0](seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        schema = bench.W.write_workload(wl, work / "data")
        args = bench.command_args("evaluate", wl, schema, work / "data", work) + ["--json"]
        child = bench.run_child(work, args, False, time.monotonic() + 120.0)
    if child.error is not None or child.rc != 0:
        raise RuntimeError(f"evaluate failed: {child.error or f'exit code {child.rc}'}")
    return hashlib.sha256(child.stdout.encode("utf-8")).hexdigest()


def evaluate_problems(lines: list[str], seed: int = 1) -> list[str]:
    """Where ``evaluate --json`` on the run's workload differs from its pin."""
    digests = [line.split() for line in lines if line.startswith("digest ")]
    pins = PINS.get((digests[0][1], seed)) if len(digests) == 1 else None
    if pins is None:
        return []  # pin_problems already reports the missing pins
    digest = evaluate_digest(digests[0][1], seed)
    if digest != pins["evaluate_sha256"]:
        return [f"{digests[0][1]} evaluate --json sha256={digest}, "
                f"pinned sha256={pins['evaluate_sha256']}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description="check a perfbench result against its pins")
    parser.add_argument("--seed", type=int, default=1, help="the seed the run used")
    seed = parser.parse_args().seed
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no result line")
        return 1
    result = json.loads(lines[-1])
    print(f"correct={result.get('correct')} failed={result.get('failed')}"
          f"/{result.get('attempted')}")
    problems = (pin_problems(lines[:-1], result.get("metrics", {}), seed)
                + evaluate_problems(lines[:-1], seed))
    for p in problems:
        print(f"pin: {p}")
    ok = result.get("correct") is True and result.get("failed") == 0 and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
