"""Seeded byte mutations of the worked example: no input ends in a traceback.

Each case mutates one file of ``examples/`` (the schema or one CSV) with a
few byte edits drawn from a fixed seed, then runs ``validate``, ``plan``,
``prepare``, ``flatten`` and ``evaluate`` through ``cli.main`` in process.
Every command must return 0, 1 or 2; an exception escaping ``cli.main``
fails the case. The sweep (220 mutations, up to five commands each) is
meant to stay under 6 s.
"""

import random
import shutil

import pytest

from cmml import cli
from conftest import EXAMPLE_DATA, EXAMPLE_SCHEMA

TARGETS = ["schema", *sorted(p.stem for p in EXAMPLE_DATA.glob("*.csv"))]
# mutations per target: more of the schema, whose faults reach every command
SEEDS = {target: range(100 if target == "schema" else 30) for target in TARGETS}
# bytes a CSV or schema treats specially, then any byte at all
SPECIAL = b',"\n\r\x00{}()=:.-0123456789 \xff\xc3'


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to four edits: a byte replaced, deleted or
    inserted, or a span of up to 40 bytes repeated."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out) + 1)
        byte = rng.choice(SPECIAL) if rng.random() < 0.7 else rng.randrange(256)
        edit = rng.randrange(4)
        if edit == 0 and at < len(out):
            out[at] = byte
        elif edit == 1:
            del out[at:at + 1]
        elif edit == 2:
            out.insert(at, byte)
        else:
            out[at:at] = out[at:at + rng.randint(1, 40)]
    return bytes(out)


def run_commands(work, target: str, seed: int) -> list[int]:
    """Each command's exit code on ``work`` (a copy of the example made by
    ``example_copy``) with ``target`` mutated by ``seed``. ``plan`` reads no
    data, so it runs only on a mutated schema. The file is restored after."""
    schema, data = work / "schema.cmml", work / "data"
    path = schema if target == "schema" else data / f"{target}.csv"
    original = path.read_bytes()
    path.write_bytes(mutate(original, random.Random(f"{target}:{seed}")))
    common = ["--schema", str(schema), "--quiet"]
    task = ["--task", "PREDICT_LTV"]
    argvs = [["validate", *common, "--data-dir", str(data)],
             ["plan", *common, *task],
             ["prepare", *common, *task, "--data-dir", str(data), "--out", str(work / "prepared")],
             ["flatten", *common, *task, "--data-dir", str(data), "--out", str(work / "flat")],
             # two folds: the example has four customers
             ["evaluate", *common, *task, "--data-dir", str(data), "--folds", "2"]]
    try:
        return [cli.main(argv) for argv in argvs if target == "schema" or argv[0] != "plan"]
    finally:
        path.write_bytes(original)


@pytest.fixture
def example_copy(tmp_path, monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    shutil.copytree(EXAMPLE_DATA, tmp_path / "data")
    shutil.copyfile(EXAMPLE_SCHEMA, tmp_path / "schema.cmml")
    return tmp_path


@pytest.mark.parametrize("target", TARGETS)
def test_mutations_end_in_an_exit_code(target, example_copy, capsys):
    for seed in SEEDS[target]:
        try:
            codes = run_commands(example_copy, target, seed)
        except Exception as exc:  # name the case that escaped cli.main
            raise AssertionError(f"{target} mutated by seed {seed} raised") from exc
        assert set(codes) <= {0, 1, 2}, (target, seed, codes)
        capsys.readouterr()


# Mutations that once ended in a traceback, each kept as a named case with
# the exit codes it must give
FOUND = {
    # a byte that is not UTF-8 in the schema: UnicodeDecodeError from dsl.parse_schema_file
    "schema-not-utf8-invalid-start-byte": ("schema", 0, [1, 1, 1, 1, 1]),
    "schema-not-utf8-invalid-continuation-byte": ("schema", 41, [1, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("target,seed,codes", FOUND.values(), ids=list(FOUND))
def test_mutation_that_found_a_fault(target, seed, codes, example_copy):
    assert run_commands(example_copy, target, seed) == codes
