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

# The target sits on the N side of PLACES, so both `prepare` and `flatten`
# hop from ORDER to its one CUSTOMER (the parent carries the fk). Order o4
# has no customer, customer c3 has no PROFILE, and o2 has no LINE.
N_SIDE_SCHEMA = """
entity CUSTOMER {
  key cust_id: identifier
  attr region: nominal
  attr vip: boolean
}
entity ORDER {
  key order_id: identifier
  attr total: numeric
  attr placed: date
  derived attr age: numeric = years_between(placed, today())
}
entity LINE {
  key line_id: identifier
  attr qty: numeric
}
entity PROFILE {
  key profile_id: identifier
  attr score: numeric
}
relationship PLACES { CUSTOMER (0,1) -- (0,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
relationship HAS { CUSTOMER (0,1) -- (0,1) PROFILE via cust_id }
task T { target ORDER.total }
"""
N_SIDE_DATA = {
    "CUSTOMER": "cust_id,region,vip\nc1,north,true\nc2,,false\nc3,south,\n",
    "ORDER": ("order_id,total,placed,cust_id\no1,10,2018-01-05,c1\no2,25.5,2018-02-01,c1\n"
              "o3,,2018-03-01,c2\no4,40,,\no5,7,2018-05-09,c3\no6,10,2018-01-05,c2\n"),
    "LINE": ("line_id,qty,order_id\nl1,1,o1\nl2,2,o1\nl3,,o3\nl4,3,o4\nl5,1,o5\n"
             "l6,1,o6\nl7,2,o4\n"),
    "PROFILE": "profile_id,score,cust_id\np1,0.5,c1\np2,,c2\n",
}

# A three-level chain whose aggregate derivations read each other: the
# CUSTOMER target sums ORDER.basket, which is itself an aggregate over LINE.
# c4 has no order, c6 a null bonus (null target), o3 no line, l5 a null qty.
CHAIN_SCHEMA = """
entity CUSTOMER {
  key cust_id: identifier
  attr segment: nominal
  attr bonus: numeric
  derived attr value: numeric = 0.1 * sum(PLACES.basket) + bonus
}
entity ORDER {
  key order_id: identifier
  attr shipping: numeric
  derived attr lines: numeric = count(CONTAINS)
  derived attr basket: numeric = sum(CONTAINS.price) + shipping
}
entity LINE {
  key line_id: identifier
  attr qty: numeric
  attr unit_price: numeric
  derived attr price: numeric = qty * unit_price
}
relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
task T { target CUSTOMER.value }
"""
CHAIN_DATA = {
    "CUSTOMER": ("cust_id,segment,bonus\nc1,a,3\nc2,b,-1.5\nc3,a,0\nc4,c,2\nc5,b,4.25\n"
                 "c6,c,\nc7,a,1\n"),
    "ORDER": ("order_id,shipping,cust_id\no1,5,c1\no2,2.5,c1\no3,4,c2\no4,0,c3\n"
              "o5,7,c5\no6,1,c5\no7,3,c6\no8,6,c7\no9,,c7\n"),
    "LINE": ("line_id,qty,unit_price,order_id\nl1,2,10,o1\nl2,1,4.5,o1\nl3,3,2,o2\n"
             "l4,1,20,o4\nl5,,8,o5\nl6,4,1.25,o5\nl7,2,3,o6\nl8,1,9,o7\nl9,5,2,o8\n"
             "l10,1,1,o9\n"),
}

# Derivation side effects: ORDER.per_ship divides by a zero shipping on o3
# (a division-by-zero warning) and aggregates below the root, and the
# derived ORDER.LINE_count meets the G4 summary column of the same name, so
# it is renamed LINE_count_2 with a collision warning. o4 has no line, o6 a
# null shipping and c8 a null target.
COLLISION_SCHEMA = """
entity CUSTOMER {
  key cust_id: identifier
  attr segment: nominal
  attr spend: numeric
}
entity ORDER {
  key order_id: identifier
  attr shipping: numeric
  derived attr per_ship: numeric = count(CONTAINS) / shipping
  derived attr LINE_count: numeric = sum(CONTAINS.qty) * 2
}
entity LINE {
  key line_id: identifier
  attr qty: numeric
}
relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (0,N) LINE via order_id }
task T { target CUSTOMER.spend }
"""
COLLISION_DATA = {
    "CUSTOMER": ("cust_id,segment,spend\nc1,a,12\nc2,b,3.5\nc3,a,20\nc4,c,7\nc5,b,0\n"
                 "c6,a,15.25\nc7,c,9\nc8,b,\n"),
    "ORDER": ("order_id,shipping,cust_id\no1,2,c1\no2,1.5,c1\no3,0,c2\no4,4,c3\n"
              "o5,1,c4\no6,,c5\no7,3,c6\no8,2,c7\no9,5,c7\no10,1,c8\n"),
    "LINE": ("line_id,qty,order_id\nl1,2,o1\nl2,1,o1\nl3,3,o2\nl4,1,o3\nl5,2,o3\n"
             "l6,,o5\nl7,4,o6\nl8,1,o7\nl9,2,o8\nl10,5,o9\nl11,1,o9\nl12,3,o10\n"),
}

# A derivation reads a derived attribute across an edge the spanning tree
# leaves out: ORDER.refs sums CUSTOMER.n over REFERS, which resolve_target
# skips because PLACES already joins the two entities. The plan derives
# ORDER.refs before the target entity's CUSTOMER.n, which is then evaluated
# on demand. c4 has a null target, c3 and c7 refer to no order.
SKIPPED_EDGE_SCHEMA = """
entity CUSTOMER {
  key cust_id: identifier
  attr score: numeric
  derived attr n: numeric = count(PLACES)
}
entity ORDER {
  key order_id: identifier
  attr total: numeric
  derived attr refs: numeric = sum(REFERS.n)
}
relationship PLACES { CUSTOMER (1,1) -- (0,N) ORDER via cust_id }
relationship REFERS { ORDER (0,1) -- (0,N) CUSTOMER via ref_order }
task T { target CUSTOMER.score }
"""
SKIPPED_EDGE_DATA = {
    "CUSTOMER": ("cust_id,score,ref_order\nc1,10,o3\nc2,4.5,o1\nc3,7,\nc4,,o1\nc5,2,o5\n"
                 "c6,8.25,o3\nc7,1,\n"),
    "ORDER": ("order_id,total,cust_id\no1,20,c1\no2,5.5,c1\no3,12,c2\no4,,c3\no5,3,c5\n"
              "o6,9,c6\no7,4,c6\no8,1,c6\n"),
}

GOLDEN = {
    "chain": {
        "evaluate.json":
            "1bcd90b3215ee811290999437ca53122bb7e365bd4467d0e002b3b1ca2c6fea2",
        "flatten/ds0.csv":
            "33c5f22b7bc28268a02a346a5d45ef5885acced884dc2692c1dfa5c10ca195fe",
        "plan.json":
            "ac90c844cb3ae3f5794ed709cb11b700ee7cb164d7bb7c8e8865487d7abd64d9",
        "prepare/T.csv":
            "a0381ed10f2a485fd0e552cb7a360e8068ead38c0324e4cfc6ceec7ea5923eb7",
        "prepare/manifest.json":
            "56aed6ecf2457bd324e82281a8f7f6353687b55dfd974de227e12e53776ff43b",
    },
    "collision": {
        "evaluate.json":
            "ee50d9a83c70ac9135c59829817d49620a2f367a16d44942fd4b83f7a13d0547",
        "flatten/ds0.csv":
            "9d6d1dd519c7bb6e712deb81fcf81cf31e0fde33822e2de72aea4381b995ae3e",
        "plan.json":
            "a3824c5f4d5a7e1de3b1de6201f642433114acfbdcd9754ead68ab4f58ce53bc",
        "prepare/T.csv":
            "b9a39024b68c3ad8414bd4826e050e3f92c935c0328464e9d04cd912c676db88",
        "prepare/manifest.json":
            "e83ded35293303b02502e561f939280e019755f61affba297f563e80a003f0b6",
    },
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
    "n_side_target": {
        "flatten/ds0.csv":
            "a705dc22099b9b14b88a4d6ce51cf36f77fe6c7024f0bb466aeef5f1eb7bcd26",
        "plan.json":
            "35ffc7570414d713d9ba537f50f44c8aa1244a2226e790ab3cbe4e026f3efe8e",
        "prepare/T.csv":
            "b559278cac9729bf23b3114ef2fdbefe8bf82970a78174d10797cb6e8de44e2a",
        "prepare/manifest.json":
            "1291fd2bab464868951d1ffd6d8425718c9bdd82e4a2974aa83204846e70328c",
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
    "skipped_edge": {
        "evaluate.json":
            "47ff37733c85e6d6291b4b63b54111d490219ec7150ad46d9f1db9bf6eff0c3c",
        "flatten/ds0.csv":
            "9b122ff475b0d44b44da06c94e5fb2ed2e99ffe874d1d341311d5adb90e49f3b",
        "plan.json":
            "1d2bd9886e2fce6d79c90f8b3245ebcfb91f57811d3c424776ac7162aa6d8028",
        "prepare/T.csv":
            "9ef15e33a9d389890e30bd23b29622221962ce6b940bce985705c079adcc4380",
        "prepare/manifest.json":
            "3fa58a312a08aef24b5061ab6292f0e7b46c7fe1105d76bbb14ee92d561dd43e",
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
        case = Case(seed, derived=False)
        return _write(tmp_path, case.bundle.tables, case._schema_text()), tmp_path, "T"
    return build


def _inline(schema_text, data):
    def build(tmp_path):
        for name, text in data.items():
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        return _write(tmp_path, {}, schema_text), tmp_path, "T"
    return build


CASES = {
    "example": _example,
    "synth_1": _synth(1),
    "synth_2": _synth(2),
    "propgen_1": _propgen(1),    # no generalization, 1:1 edge, impute none
    "propgen_5": _propgen(5),    # disjoint split, grandchild, 1:N and 1:1 edges
    "propgen_12": _propgen(12),  # overlap split, grandchild
    "propgen_36": _propgen(36),  # no generalization, 1:N and 1:1 edges, grandchild
    "from_table": _inline(FROM_TABLE_SCHEMA, FROM_TABLE_DATA),
    "n_side_target": _inline(N_SIDE_SCHEMA, N_SIDE_DATA),
    "chain": _inline(CHAIN_SCHEMA, CHAIN_DATA),
    "collision": _inline(COLLISION_SCHEMA, COLLISION_DATA),
    "skipped_edge": _inline(SKIPPED_EDGE_SCHEMA, SKIPPED_EDGE_DATA),
}


# Cases whose task emits a single dataset, so `evaluate` runs on them. The
# example has fewer keys than folds.
EVALUATED = {"synth_1", "synth_2", "propgen_1", "propgen_36", "chain", "collision",
             "skipped_edge"}


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


def test_skipped_edge_derivation_values(tmp_path, monkeypatch):
    # CUSTOMER.n counts a customer's orders; ORDER.refs sums n over the
    # customers that refer to the order
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    schema, data_dir, task = CASES["skipped_edge"](tmp_path)
    assert cli.main(["flatten", "--schema", str(schema), "--task", task, "--quiet",
                     "--data-dir", str(data_dir), "--out", str(tmp_path / "flatten")]) == 0
    lines = (tmp_path / "flatten" / "ds0.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert {r["ORDER_order_id"]: r["ORDER_refs"] for r in rows if r["ORDER_order_id"]} == {
        "o1": "1", "o2": "0", "o3": "5", "o4": "0", "o5": "1", "o6": "0", "o7": "0", "o8": "0"}
    assert {r["CUSTOMER_cust_id"]: r["CUSTOMER_n"] for r in rows} == {
        "c1": "2", "c2": "1", "c3": "1", "c4": "0", "c5": "1", "c6": "3", "c7": "0"}


def test_evaluate_reports_execution_warnings(tmp_path, capsys, monkeypatch):
    # stdout is the golden evaluate.json either way; only stderr differs
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    schema, data_dir, task = CASES["collision"](tmp_path)
    args = ["evaluate", "--schema", str(schema), "--task", task, "--data-dir", str(data_dir),
            "--json", "--folds", "5", "--range", "100"]
    assert cli.main(args) == 0
    out, err = capsys.readouterr()
    assert _sha(out.encode("utf-8")) == GOLDEN["collision"]["evaluate.json"]
    assert err.splitlines() == [
        "warning: derived-value: ORDER.per_ship: division by zero in "
        "'count(CONTAINS) / shipping'",
        "warning: name-collision: feature name collision: 'LINE_count' renamed to LINE_count_2"]
    assert cli.main(args + ["--quiet"]) == 0
    out, err = capsys.readouterr()
    assert _sha(out.encode("utf-8")) == GOLDEN["collision"]["evaluate.json"] and err == ""
