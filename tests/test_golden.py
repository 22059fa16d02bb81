"""Golden-output gate: SHA-256 of every byte `prepare`, `flatten`,
`plan --json` and `evaluate --json` write, for fixed inputs and a pinned
clock.

A refactor must leave these digests unchanged. A change that alters output
on purpose updates the digests in the same commit and says why.
"""

import hashlib

import pytest

from cmml import cli, evalkit
from cmml.tabular import write_csv
from conftest import EXAMPLE_DATA, EXAMPLE_SCHEMA
from propgen import Case

# Subtypes whose members and attributes come from their own tables; the
# example and the generated cases only use predicate subtypes.
FROM_TABLE_SCHEMA = """
entity ACCOUNT {
  key id: identifier
  attr t: numeric
  attr region: nominal
}
generalization TIER of ACCOUNT overlap {
  subtype GOLD from table { attr perk: numeric attr since: date }
  subtype TRIAL from table { attr days_left: numeric }
}
task T { target ACCOUNT.t split_by TIER }
"""
FROM_TABLE_DATA = {
    "ACCOUNT": "id,t,region\na,1,north\nb,2,\nc,3,south\nd,,north\ne,5,south\n",
    "GOLD": "id,perk,since\na,5,2018-01-01\nb,,2018-02-01\nd,7,\n",
    "TRIAL": "id,days_left\nb,\nc,10\ne,4\n",
}

GOLDEN = {
    "example": {
        "flatten/ds0.csv":
            "7f9da098e43493952390710da396b9cbbdfe504722b73ee89ccd523d94af85c1",
        "plan.json":
            "3f7ac28e4a82bcb2e19a5411e4631878dcd56b10724ae61f07ced331e98e283f",
        "prepare/PREDICT_LTV.csv":
            "6766ef0bedf31245defc1996d8d2989f5284b65c18ff3e0355b877aa1df4f11c",
        "prepare/manifest.json":
            "c1ac495c0dcab69b54e5768e591454ac64e9eabf2205b4b234ff8c80374111f9",
    },
    "from_table": {
        "flatten/ds0.csv":
            "389b54d1d36d032c1bbb8d50a461eb915230b180a822b703f8dc21983901a23a",
        "plan.json":
            "67e5906335c5ba8791e0fd1025305c3f2204099c5426121ed60f7e1a5d246d20",
        "prepare/T_GOLD.csv":
            "70ca8c8e0f06372a84d97a43a054d252797774a1d8bc8442a3fb357139bf2b1c",
        "prepare/T_TRIAL.csv":
            "ccfd57897bec319ad2e576dd79dcfc4e19927631bf69a204d7e0bd17667da492",
        "prepare/manifest.json":
            "e5aa121ba2082eaddf55100cc9d2a81d51842b4b9b1072c1e754dc9fe48178dc",
    },
    "propgen_1": {
        "evaluate.json":
            "398a4e184916320e4d7a879865c900fec57d35af860ca260f1e63e171212d941",
        "flatten/ds0.csv":
            "5ed620bd673434e1dabb490b213db416ae4cc8ca0813c7fd9c5e77c33548738b",
        "plan.json":
            "1ac7450bbc52e26c08f79c3c09be26cfe75009cbf8bc54e742b2eb01029a86ad",
        "prepare/T.csv":
            "23a621513b4f346037e5ba33b381d860cd47ab466b764ff2ff76d0a819ee24dd",
        "prepare/manifest.json":
            "1de3380d2089be5d307b8d0864e69f32db6d9e6892baf673cc4a163d350ed041",
    },
    "propgen_12": {
        "flatten/ds0.csv":
            "8c0b0b4193da6a34499db8fde6ae6288fa7884e0ca3f34b9b66af2560de0980b",
        "plan.json":
            "77908caed5f50b1268607b4f958e3ddf9ebab61ae4e52cf6c49cd76acfe464b7",
        "prepare/T_HIGH.csv":
            "f522fa82cdd818a78c8fb1303625eb660072a1a86320f18f4a09dd426c4d82c9",
        "prepare/T_LOW.csv":
            "7adb0a6139271eef56cacdc14a65a6014913d432f6aac4ad79f81648734e2fac",
        "prepare/manifest.json":
            "170c17709b2a9d9914e093e5e580d4d34f457d60638b0fc4fe57fbd36e0961d1",
    },
    "propgen_36": {
        "evaluate.json":
            "cdd575ebea4e927ac249d06045bb4954ef312357324488729add23b7cd8a6526",
        "flatten/ds0.csv":
            "416551d0818899910fe4c8a3a19e058b5acd1c6c317ca191d59f9699c43424e0",
        "plan.json":
            "57787de213697af83d8284f588f07a59ab95f832806c2df11b8d50f968f5ae45",
        "prepare/T.csv":
            "392ff7798f39c096952f6507f0a4b373ed448f350b4be42f40179d5e886150de",
        "prepare/manifest.json":
            "9d87c2c036e753b2f36b58f5b228b154f64bef1bf2150be9e176f5fbef8224ec",
    },
    "propgen_5": {
        "flatten/ds0.csv":
            "c60d28b4c8a8d324b23b383aa93acc3d1a3f8a452377d9275f0cc0c42c4d2c4b",
        "plan.json":
            "017daf610ca6503d0af0e5a6abae748fd5cccc212ce19bf8c5386f92d711f125",
        "prepare/T_HIGH.csv":
            "745045db3f7f69df6846a95d361f86efef2e7edcfa9d331d40a1e9dc7d412c5a",
        "prepare/T_LOW.csv":
            "ea6ffba16404d1896772547495e97d3ec026ff7da9a22478ee311fe64e76e97e",
        "prepare/manifest.json":
            "01c437038c33e34c30dfebb0a36f836931986db20563a2c8e3f5c3d3b5bd10fc",
    },
    "synth_1": {
        "evaluate.json":
            "e2f1816495ec673bd2839c609053e561345dabc3ec5ec1a67de21e3de7806cf7",
        "flatten/ds0.csv":
            "8f860f4658869527e4dc48d9d4214515015743de39fdd39e0bbe86e5b7075bb3",
        "plan.json":
            "2aa74783060f14ec2151ee9195bbb0be9b80abe9eb20bfe3b97a7819486e9fee",
        "prepare/PREDICT_LTV.csv":
            "62beb5836991c67b5822897cd945eccfb7188f8608ed106f54f16f13c22b2b00",
        "prepare/manifest.json":
            "3b79e8a06b069a355d1f617cadaf265eb0d8d45db829e230714695d37a9a0dde",
    },
    "synth_2": {
        "evaluate.json":
            "caea83dfb20bdfb31a71006dd2bfd1169439ea60cef05cc4ec08f0c162bd3150",
        "flatten/ds0.csv":
            "c7ab65481c4a80b1dc59401b41014643ad02ae08d088fd24811581796cb896e8",
        "plan.json":
            "2aa74783060f14ec2151ee9195bbb0be9b80abe9eb20bfe3b97a7819486e9fee",
        "prepare/PREDICT_LTV.csv":
            "0ada3fbf140e43d90cc876dacf492b39ca623a211a078431d69dd50ff8da02bb",
        "prepare/manifest.json":
            "c800e52060770cac5a41f8655a3534546ca32c9e42b6f20c913665a5f86f76ac",
    },
}


def _example(tmp_path):
    return EXAMPLE_SCHEMA, EXAMPLE_DATA, "PREDICT_LTV"


def _write(tmp_path, tables, schema_text):
    for name, table in tables.items():
        write_csv(table, tmp_path / f"{name}.csv")
    schema = tmp_path / "schema.cmml"
    schema.write_text(schema_text, encoding="utf-8")
    return schema


def _synth(seed):
    def build(tmp_path):
        bundle = evalkit.synth_generate(evalkit.SynthSpec(), seed)
        return _write(tmp_path, bundle.tables, evalkit.SYNTH_SCHEMA_TEXT), tmp_path, "PREDICT_LTV"
    return build


def _propgen(seed):
    def build(tmp_path):
        case = Case(seed)
        return _write(tmp_path, case.bundle.tables, case._schema_text()), tmp_path, "T"
    return build


def _from_table(tmp_path):
    for name, text in FROM_TABLE_DATA.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    return _write(tmp_path, {}, FROM_TABLE_SCHEMA), tmp_path, "T"


CASES = {
    "example": _example,
    "synth_1": _synth(1),
    "synth_2": _synth(2),
    "propgen_1": _propgen(1),    # no generalization, 1:1 edge, impute none
    "propgen_5": _propgen(5),    # disjoint split, grandchild, 1:N and 1:1 edges
    "propgen_12": _propgen(12),  # overlap split, grandchild
    "propgen_36": _propgen(36),  # no generalization, 1:N and 1:1 edges, grandchild
    "from_table": _from_table,
}


# Cases whose task emits a single dataset, so `evaluate` runs on them. The
# example has fewer keys than folds.
EVALUATED = {"synth_1", "synth_2", "propgen_1", "propgen_36"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(build, tmp_path, capsys, evaluate: bool) -> dict[str, str]:
    data = tmp_path / "data"
    data.mkdir()
    schema, data_dir, task = build(data)
    common = ["--schema", str(schema), "--task", task, "--quiet"]
    out = {}
    assert cli.main(["prepare", *common, "--data-dir", str(data_dir),
                     "--out", str(tmp_path / "prepare")]) == 0
    for path in sorted((tmp_path / "prepare").iterdir()):
        out[f"prepare/{path.name}"] = _sha(path.read_bytes())
    assert cli.main(["flatten", *common, "--data-dir", str(data_dir),
                     "--out", str(tmp_path / "flatten")]) == 0
    out["flatten/ds0.csv"] = _sha((tmp_path / "flatten" / "ds0.csv").read_bytes())
    capsys.readouterr()
    assert cli.main(["plan", *common, "--json"]) == 0
    out["plan.json"] = _sha(capsys.readouterr().out.encode("utf-8"))
    if evaluate:
        assert cli.main(["evaluate", *common, "--data-dir", str(data_dir), "--json",
                         "--folds", "5", "--range", "100"]) == 0
        out["evaluate.json"] = _sha(capsys.readouterr().out.encode("utf-8"))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    assert _digests(CASES[name], tmp_path, capsys, name in EVALUATED) == GOLDEN[name]
