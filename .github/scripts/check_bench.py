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
against. Both seeds' ``evaluate_tds_nrmse`` and ``evaluate_sha256`` pins
were retaken when ``evaluate`` began to fit its folds from per-fold sums,
which moved the fit's last bits. Three ``evaluate_sha256`` pins moved again
when a join view's design stopped counting the block rows no row reaches.

Every run also reruns three commands on the workload perfbench generates
from the seed, with perfbench's own arguments in perfbench's child process,
and pins the SHA-256 of each output: ``validate_sha256`` of what ``validate
--json`` prints (every diagnostic, the subtype membership warnings among
them, and the cardinalities), ``flatten_sha256`` of the ``ds0.csv`` that
``flatten`` writes, and ``evaluate_sha256`` of what ``evaluate --json``
prints (both arms' metrics, the signed-rank test and the fold sizes).
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
        "evaluate_tds_nrmse": 0.053488628641885486,
        "validate_sha256": "6004938c9c9fa4a8f0636b121b38b8247df3aded3642cdee2ba628988dec7c6d",
        "flatten_sha256": "630a639689d29e18b2c69a0812769800663ade6a3d13849e98e53c330ace5999",
        "evaluate_sha256": "b94848baa87d67755bfebf00fcda5fa926d4db4ed444984a006d00bb71800f7b",
    },
    ("ltv_eval", 2): {
        "prepare_sha256": "fe7a1f3a9b9b52e2dd98720de60c78dd9a6e0bccbc403b1c8798218094b26dcf",
        "evaluate_tds_nrmse": 0.05366512824955805,
        "validate_sha256": "6004938c9c9fa4a8f0636b121b38b8247df3aded3642cdee2ba628988dec7c6d",
        "flatten_sha256": "246b7e389793c8f11d96a50d5eabe05227e3a0461f1153ce084551e1b03a7f29",
        "evaluate_sha256": "d5251da13ba3c623c4850e1a5d6a3a333e0e4e9ce2c1521a1cb5c63493de5b5d",
    },
    ("star_split", 1): {
        "prepare_sha256": "d7cddba86975e62bab3a12d1cd6b6cf9d28a868759c7f82b216acb55e64fccc9",
        "evaluate_tds_nrmse": 0.050734576574443524,
        "validate_sha256": "f596d4d01876aca1d15f49ddd0860e74bf10493d1a1a573d84539c9e6fde8db0",
        "flatten_sha256": "306b50a5ed49830fc71daf2e3526be58c0836a61c5ccac101f8899d12da4e0dd",
        "evaluate_sha256": "9fb40894848c1379f98c1eed8d046807a66adbed195ae79302ceb0aa3f342235",
    },
    ("star_split", 2): {
        "prepare_sha256": "185e5ee35595f59c09db99c876a6492f84c3ad8ab6c3c58332d226d8d5689157",
        "evaluate_tds_nrmse": 0.053205398778814125,
        "validate_sha256": "e4b80ba2a8ca98e70f3c21e1bcdb01eb9bf75cfb6a057608c0ad9c5ccebcffac",
        "flatten_sha256": "92f8876d83f5322a86454983ead8cf71e12779652f6bf36b24c781eee8674fac",
        "evaluate_sha256": "44f46f454c46f5895aedacbc200a84e871b50d8765118d4504351d4a1a8fe53b",
    },
    ("chain_derive", 1): {
        "prepare_sha256": "9636ed0d592ea4afbfc29feff08bf297a248a7cebab04c25cc1ed05be7fe8792",
        "evaluate_tds_nrmse": 0.029317325144780082,
        "validate_sha256": "8a6e78d1d7a0766cbb33464d57c5389023a5a2865d168d0c377b66c5a3e271d5",
        "flatten_sha256": "025f97529d0f08d6c3cce64dcc55501481b40f73e268ee9549ea1ae332ef0fd9",
        "evaluate_sha256": "7be7ae5dfe2acadfe0fd1b0679a1419eef4252f09d366e85e37ffcbac02ad26d",
    },
    ("chain_derive", 2): {
        "prepare_sha256": "c07461cdd6a80f6538a878dc5f18b85c539552c30bc26daa8ad0691c23f7a2d9",
        "evaluate_tds_nrmse": 0.028997972948588233,
        "validate_sha256": "8a6e78d1d7a0766cbb33464d57c5389023a5a2865d168d0c377b66c5a3e271d5",
        "flatten_sha256": "6804e62e77ff047fc2c6190fe8a191bde5f91c9e6a6ca7b14750a59ccdc8d0d6",
        "evaluate_sha256": "649c84e2894cb586048f01bf01801a54bf710c2d813d59510685df4804427caf",
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


def output_digests(workload: str, seed: int) -> dict[str, str]:
    """SHA-256 of what ``validate --json`` and ``evaluate --json`` print and
    of the ``ds0.csv`` that ``flatten`` writes, on the workload generated
    from the seed, in a temporary directory; keyed like the pins."""
    sys.path.insert(0, str(PERFBENCH))
    import run as bench  # perfbench/run.py

    wl = bench.W.WORKLOADS[workload][0](seed)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        schema = bench.W.write_workload(wl, work / "data")
        for cmd in ("validate", "flatten", "evaluate"):
            args = bench.command_args(cmd, wl, schema, work / "data", work)
            if cmd == "evaluate":
                args.append("--json")
            child = bench.run_child(work, args, False, time.monotonic() + 120.0)
            if child.error is not None or child.rc != 0:
                raise RuntimeError(f"{cmd} failed: {child.error or f'exit code {child.rc}'}")
            data = ((work / "out_flatten" / "ds0.csv").read_bytes() if cmd == "flatten"
                    else child.stdout.encode("utf-8"))
            digests[f"{cmd}_sha256"] = hashlib.sha256(data).hexdigest()
    return digests


def output_problems(lines: list[str], seed: int = 1) -> list[str]:
    """Where the validate, flatten or evaluate output on the run's workload
    differs from its pin."""
    digests = [line.split() for line in lines if line.startswith("digest ")]
    pins = PINS.get((digests[0][1], seed)) if len(digests) == 1 else None
    if pins is None:
        return []  # pin_problems already reports the missing pins
    return [f"{digests[0][1]} {name[:-len('_sha256')]} sha256={digest}, pinned sha256={pins[name]}"
            for name, digest in output_digests(digests[0][1], seed).items()
            if digest != pins[name]]


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
                + output_problems(lines[:-1], seed))
    for p in problems:
        print(f"pin: {p}")
    ok = result.get("correct") is True and result.get("failed") == 0 and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
