"""Golden-output gate: SHA-256 of every byte `prepare`, `flatten`,
`plan`, `plan --json` and `evaluate --json` write, for fixed inputs and a
pinned clock.

A refactor must leave these digests unchanged. A change that alters output
on purpose updates the digests in the same commit and says why.
"""

import hashlib
import inspect
import json
import string
from pathlib import Path

import pytest

from cmml import cli, dsl, eer, engine, evalkit, planner, tabular
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

# Keys whose repr order is not their text order. SHOP's identifiers a, a b
# and a'b print as 'a', 'a b' and "a'b", so by repr a'b comes first and a
# after a b; B and E sort before every lower-case key. DAY is keyed by a
# date, whose repr sorts after the None of the absent row, which shop b (no
# day) takes. TILL is keyed by a number, and 10 prints before 2; its key
# follows an attribute, whose nulls tie. Shop b'c has a null target. Few
# aggregates keep the folds' designs well conditioned.
KEY_ORDER_SCHEMA = """
entity SHOP {
  key code: identifier
  attr region: nominal
  attr sales: numeric
}
entity DAY {
  key day: date
  attr visitors: numeric
}
entity TILL {
  attr amount: numeric
  key till_no: numeric
  attr day: date
}
relationship OPENS { SHOP (1,1) -- (0,N) DAY via code }
relationship RINGS { DAY (1,1) -- (0,N) TILL via day }
task T { target SHOP.sales agg mean }
"""
KEY_ORDER_DATA = {
    "SHOP": ("code,region,sales\na'b,north,12\na,south,3.5\na b,north,20\nb,east,7\nb'c,south,\n"
             "c,east,9.25\nB,north,4\nd,south,15\nd e,east,1\nd'e,north,8.5\ne,south,11\n"
             "E,east,6\nf,north,2.25\n"),
    "DAY": ("day,visitors,code\n2019-03-01,40,a\n2019-02-01,12,a'b\n2018-12-31,,a b\n"
            "2019-01-15,25,a\n2019-04-02,8,c\n2019-05-05,30,b'c\n2019-01-02,5,B\n"
            "2018-11-20,18,d\n2018-10-01,9,d e\n2018-09-09,22,d'e\n2018-12-01,3,e\n"
            "2019-02-14,27,E\n2018-08-08,14,f\n2018-08-09,,f\n"),
    "TILL": ("till_no,day,amount\n10,2019-03-01,5\n2,2019-03-01,7.5\n1.5,2018-12-31,3\n"
             "-3,2019-01-15,\n100,2019-04-02,11\n0.25,2019-05-05,2\n7,2019-01-02,4\n"
             "20,2018-11-20,6\n3,2018-10-01,1.5\n-12,2018-09-09,9\n30,2018-12-01,2.5\n"
             "4,2019-02-14,8\n11,2018-08-08,3.25\n5,2018-08-09,\n"),
}

# A derivation of the target entity reads its date key; the naive join keeps
# the key all the same, as the prepared dataset does. Not a golden case.
CONSUMED_KEY_SCHEMA = """
entity P { attr w: numeric key pk: date
           derived attr age: numeric = days_between(pk, today()) + w attr y: numeric }
entity C { key ck: boolean attr v: numeric attr pk: date }
relationship R { P (0,1) -- (0,N) C via pk }
task T { target P.y }
"""
CONSUMED_KEY_DATA = {
    "P": "w,pk,y\n" + "".join(f"{i},2020-01-0{i},{(3 * i) % 7}\n" for i in range(1, 7)),
    "C": "ck,v,pk\ntrue,1,2020-01-01\nfalse,2,2020-01-02\n",
}

GOLDEN = {
    "chain": {
        "evaluate.json":
            "f55079f295039daf1055ce7b58cb8582eaeaca804df3bd88a3d8e92a26e5cd06",
        "flatten/ds0.csv":
            "33c5f22b7bc28268a02a346a5d45ef5885acced884dc2692c1dfa5c10ca195fe",
        "plan.json":
            "ac90c844cb3ae3f5794ed709cb11b700ee7cb164d7bb7c8e8865487d7abd64d9",
        "plan.txt":
            "e3232e364f43ca9aedcf35e51920bfc1d1902db90e1ec21ad50652419d30f2f6",
        "prepare/T.csv":
            "a0381ed10f2a485fd0e552cb7a360e8068ead38c0324e4cfc6ceec7ea5923eb7",
        "prepare/manifest.json":
            "402ec1ea515572282adf08b5c99a01dd7359c60e8f913c4fcb3b7f9b8bbc49fb",
    },
    "collision": {
        "evaluate.json":
            "3770cc9264d09e5a527a2860bf0c5d610dbd65d7989c5dc198adeb4a51386bd6",
        "flatten/ds0.csv":
            "9d6d1dd519c7bb6e712deb81fcf81cf31e0fde33822e2de72aea4381b995ae3e",
        "plan.json":
            "a3824c5f4d5a7e1de3b1de6201f642433114acfbdcd9754ead68ab4f58ce53bc",
        "plan.txt":
            "2e3f6be1b2388964e43fc7d8a5187f211c44f604f28b76b10e285f4950614f5b",
        "prepare/T.csv":
            "b9a39024b68c3ad8414bd4826e050e3f92c935c0328464e9d04cd912c676db88",
        "prepare/manifest.json":
            "a53abef676c88b171ee6d834ef49c8adf46d6fb5088106b3d256aba8533cd5ab",
    },
    "example": {
        "flatten/ds0.csv":
            "7f9da098e43493952390710da396b9cbbdfe504722b73ee89ccd523d94af85c1",
        "plan.json":
            "3f7ac28e4a82bcb2e19a5411e4631878dcd56b10724ae61f07ced331e98e283f",
        "plan.txt":
            "2851dc60f245e2bcaefe2d8150b803b354b84d0c12e29fc05a341c0820acfa3e",
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
        "plan.txt":
            "ea286159158ea46215920a07de4f8b1040b0204c7ba844f5e0d7c3a70cadb05c",
        "prepare/T_GOLD.csv":
            "70ca8c8e0f06372a84d97a43a054d252797774a1d8bc8442a3fb357139bf2b1c",
        "prepare/T_TRIAL.csv":
            "ccfd57897bec319ad2e576dd79dcfc4e19927631bf69a204d7e0bd17667da492",
        "prepare/manifest.json":
            "e5aa121ba2082eaddf55100cc9d2a81d51842b4b9b1072c1e754dc9fe48178dc",
    },
    "key_order": {
        "evaluate.json":
            "54f8044399f6dbbbad6e917ebd8f665d0371a7579e7bacd183d00365ae027aa3",
        "flatten/ds0.csv":
            "bdf917c99c30934d020e241d5c4aa11e81fa7124c5045d6d7184c4df15c4c24d",
        "plan.json":
            "3198576b4f904c8d028deec2e4439011270f9da11a88d2d3723df1534a648598",
        "plan.txt":
            "25f9e8ceb6ee8130e6f45e1e721222750a237597d2014b160919829bdb7880a3",
        "prepare/T.csv":
            "81cb167fa5d4815a67e3839759b8f2212023844a769de23e353ab6625856bf82",
        "prepare/manifest.json":
            "18305643c110fd51d6e7c0268bac8150594207613e40bf5acb9ad0fcb4253cb3",
    },
    "n_side_target": {
        "flatten/ds0.csv":
            "a705dc22099b9b14b88a4d6ce51cf36f77fe6c7024f0bb466aeef5f1eb7bcd26",
        "plan.json":
            "35ffc7570414d713d9ba537f50f44c8aa1244a2226e790ab3cbe4e026f3efe8e",
        "plan.txt":
            "f7e1e7a86d7293e0e6b5a7f15d273ac4ea3d1b4028d38f46ed35212613933ae1",
        "prepare/T.csv":
            "b559278cac9729bf23b3114ef2fdbefe8bf82970a78174d10797cb6e8de44e2a",
        "prepare/manifest.json":
            "1291fd2bab464868951d1ffd6d8425718c9bdd82e4a2974aa83204846e70328c",
    },
    "propgen_1": {
        "evaluate.json":
            "ec2e98d5f97a0c8ef13da0bdda16e8e178f8b8a4b2d426092c125d9df37a4121",
        "flatten/ds0.csv":
            "5ed620bd673434e1dabb490b213db416ae4cc8ca0813c7fd9c5e77c33548738b",
        "plan.json":
            "1ac7450bbc52e26c08f79c3c09be26cfe75009cbf8bc54e742b2eb01029a86ad",
        "plan.txt":
            "0cd991a801c8978cbdc1ae3d0775370da326ffe0d50d0f93079ab25493880299",
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
        "plan.txt":
            "f0d537c9db1d3080e13e806d03870c78e6c9664c83be8ac31331da18055e187c",
        "prepare/T_HIGH.csv":
            "f522fa82cdd818a78c8fb1303625eb660072a1a86320f18f4a09dd426c4d82c9",
        "prepare/T_LOW.csv":
            "7adb0a6139271eef56cacdc14a65a6014913d432f6aac4ad79f81648734e2fac",
        "prepare/manifest.json":
            "170c17709b2a9d9914e093e5e580d4d34f457d60638b0fc4fe57fbd36e0961d1",
    },
    "propgen_36": {
        "evaluate.json":
            "c12bbfc352569101e1ba5ef7e4b7b906962567b051c1350e398fdca3c916dfc1",
        "flatten/ds0.csv":
            "416551d0818899910fe4c8a3a19e058b5acd1c6c317ca191d59f9699c43424e0",
        "plan.json":
            "57787de213697af83d8284f588f07a59ab95f832806c2df11b8d50f968f5ae45",
        "plan.txt":
            "58f07e34364455439b8480951ba21c873cf38d8c9504ac5952b50dab9b8628c7",
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
        "plan.txt":
            "286088553d51883c77a79268033bca39a62e861659c52037a1c5358a9c48af52",
        "prepare/T_HIGH.csv":
            "745045db3f7f69df6846a95d361f86efef2e7edcfa9d331d40a1e9dc7d412c5a",
        "prepare/T_LOW.csv":
            "ea6ffba16404d1896772547495e97d3ec026ff7da9a22478ee311fe64e76e97e",
        "prepare/manifest.json":
            "01c437038c33e34c30dfebb0a36f836931986db20563a2c8e3f5c3d3b5bd10fc",
    },
    "skipped_edge": {
        "evaluate.json":
            "c7692f2d6c4a1bb2932247e423f76a2aee8aba171e7d75257d94f7c8a5b1e758",
        "flatten/ds0.csv":
            "9b122ff475b0d44b44da06c94e5fb2ed2e99ffe874d1d341311d5adb90e49f3b",
        "plan.json":
            "1d2bd9886e2fce6d79c90f8b3245ebcfb91f57811d3c424776ac7162aa6d8028",
        "plan.txt":
            "9be12b11011859cb965d13872a8b9c74b2c742d7c2662f5cafea263c68e22881",
        "prepare/T.csv":
            "9ef15e33a9d389890e30bd23b29622221962ce6b940bce985705c079adcc4380",
        "prepare/manifest.json":
            "56e73847220a7a431ca92e02ad199f8576d2b3d9c6eed09bcf09b639822f04de",
    },
    "synth_1": {
        "evaluate.json":
            "1a7c116d26cc9d52a9917096e7a3b01ab268c3d79b1b1d5dae03ddae0a7e69bf",
        "flatten/ds0.csv":
            "8f860f4658869527e4dc48d9d4214515015743de39fdd39e0bbe86e5b7075bb3",
        "plan.json":
            "2aa74783060f14ec2151ee9195bbb0be9b80abe9eb20bfe3b97a7819486e9fee",
        "plan.txt":
            "9aeecd77eba6099480e47e738b1f14cb3d560cfaa98a54e1793a884b5801c71c",
        "prepare/PREDICT_LTV.csv":
            "62beb5836991c67b5822897cd945eccfb7188f8608ed106f54f16f13c22b2b00",
        "prepare/manifest.json":
            "3b79e8a06b069a355d1f617cadaf265eb0d8d45db829e230714695d37a9a0dde",
    },
    "synth_2": {
        "evaluate.json":
            "03cc6a9caf4def38f410133edf2142a60cff137b587edd1c70da0103f58ea0f1",
        "flatten/ds0.csv":
            "c7ab65481c4a80b1dc59401b41014643ad02ae08d088fd24811581796cb896e8",
        "plan.json":
            "2aa74783060f14ec2151ee9195bbb0be9b80abe9eb20bfe3b97a7819486e9fee",
        "plan.txt":
            "9aeecd77eba6099480e47e738b1f14cb3d560cfaa98a54e1793a884b5801c71c",
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
    "key_order": _inline(KEY_ORDER_SCHEMA, KEY_ORDER_DATA),
}


# Cases whose task emits a single dataset, so `evaluate` runs on them. The
# example has fewer keys than folds.
EVALUATED = {"synth_1", "synth_2", "propgen_1", "propgen_36", "chain", "collision",
             "skipped_edge", "key_order"}


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
    assert cli.main(["plan", *common]) == 0
    out["plan.txt"] = _sha(capsys.readouterr().out.encode("utf-8"))
    if evaluate:
        assert cli.main(["evaluate", *common, "--data-dir", str(data_dir), "--json",
                         "--folds", "5", "--range", "100"]) == 0
        out["evaluate.json"] = _sha(capsys.readouterr().out.encode("utf-8"))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    assert _digests(CASES[name], tmp_path, capsys, name in EVALUATED) == GOLDEN[name]


# SHA-256 of every file `prepare --holdout 0.5` writes: each dataset, its
# train and test parts and the manifest, for a case without a split, a
# disjoint split, an overlap split and from-table subtypes.
HOLDOUT_GOLDEN = {
    "example": {
        "PREDICT_LTV.csv":
            "6766ef0bedf31245defc1996d8d2989f5284b65c18ff3e0355b877aa1df4f11c",
        "PREDICT_LTV_test.csv":
            "6766ef0bedf31245defc1996d8d2989f5284b65c18ff3e0355b877aa1df4f11c",
        "PREDICT_LTV_train.csv":
            "af96607c77c4df9d1c8d1ecdf19a91a95605323a6d018658f929a3347775db87",
        "manifest.json":
            "c1ac495c0dcab69b54e5768e591454ac64e9eabf2205b4b234ff8c80374111f9",
    },
    "from_table": {
        "T_GOLD.csv":
            "70ca8c8e0f06372a84d97a43a054d252797774a1d8bc8442a3fb357139bf2b1c",
        "T_GOLD_test.csv":
            "74b4ef0f02b26542eb811cc2ce018edc2bb91ee294fbfb1a43f08e9097f3481c",
        "T_GOLD_train.csv":
            "35fad13bdd9ed38f69f081a6407ce0e75efcda6fe370504a130917a8284de9fe",
        "T_TRIAL.csv":
            "ccfd57897bec319ad2e576dd79dcfc4e19927631bf69a204d7e0bd17667da492",
        "T_TRIAL_test.csv":
            "ccfd57897bec319ad2e576dd79dcfc4e19927631bf69a204d7e0bd17667da492",
        "T_TRIAL_train.csv":
            "922228a3c1658911fbcaae023ccb3c566192e891f4bf13727259fc1d75d120b4",
        "manifest.json":
            "e5aa121ba2082eaddf55100cc9d2a81d51842b4b9b1072c1e754dc9fe48178dc",
    },
    "propgen_12": {
        "T_HIGH.csv":
            "f522fa82cdd818a78c8fb1303625eb660072a1a86320f18f4a09dd426c4d82c9",
        "T_HIGH_test.csv":
            "0a487ab53cc86e200a810de6e9d9fc3127d1ca677d57ed0f85a9c5624c2d7683",
        "T_HIGH_train.csv":
            "3abde5fd33efe6523eb601514eb7637d2dbf1d188ebe0d91278f7242929352f9",
        "T_LOW.csv":
            "7adb0a6139271eef56cacdc14a65a6014913d432f6aac4ad79f81648734e2fac",
        "T_LOW_test.csv":
            "1c6cc220ab8f0a261666367aa8ef5d5da9458aa5f320e1a6bda14cfab0dfaefb",
        "T_LOW_train.csv":
            "7adb0a6139271eef56cacdc14a65a6014913d432f6aac4ad79f81648734e2fac",
        "manifest.json":
            "170c17709b2a9d9914e093e5e580d4d34f457d60638b0fc4fe57fbd36e0961d1",
    },
    "propgen_5": {
        "T_HIGH.csv":
            "745045db3f7f69df6846a95d361f86efef2e7edcfa9d331d40a1e9dc7d412c5a",
        "T_HIGH_test.csv":
            "076b239bcc017b067613e3182354be47f504f16ea2cca2357aedb57c01f2801c",
        "T_HIGH_train.csv":
            "745045db3f7f69df6846a95d361f86efef2e7edcfa9d331d40a1e9dc7d412c5a",
        "T_LOW.csv":
            "ea6ffba16404d1896772547495e97d3ec026ff7da9a22478ee311fe64e76e97e",
        "T_LOW_test.csv":
            "cf6e4de4c9d8a34615c41a31ad803b2e7556b3088f4130137e4287571f245d34",
        "T_LOW_train.csv":
            "f63baae117fa3defe63f2b7ac9b98d7bdb676bcecf1e97d864346652c3da3830",
        "manifest.json":
            "01c437038c33e34c30dfebb0a36f836931986db20563a2c8e3f5c3d3b5bd10fc",
    },
}


@pytest.mark.parametrize("name", sorted(HOLDOUT_GOLDEN))
def test_golden_holdout_outputs(name, tmp_path, monkeypatch):
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    (tmp_path / "data").mkdir()
    schema, data_dir, task = CASES[name](tmp_path / "data")
    out = tmp_path / "prepare"
    assert cli.main(["prepare", "--schema", str(schema), "--task", task, "--quiet",
                     "--data-dir", str(data_dir), "--out", str(out), "--holdout", "0.5"]) == 0
    assert {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} == HOLDOUT_GOLDEN[name]


@pytest.mark.parametrize("sizes", [(512, 4096), (2, 3)])
@pytest.mark.parametrize("name", sorted(CASES))
def test_streamed_ds0_equals_in_memory_bytes_and_pin(name, sizes, tmp_path, monkeypatch):
    # flatten writes ds0.csv a piece at a time; its bytes are
    # table_to_csv_bytes' and the pinned ones, whatever the piece sizes
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    monkeypatch.setattr(tabular, "_PIECE_ROWS", sizes[0])
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", sizes[1])
    in_memory = []

    def both(table, path):
        write_csv(table, path)
        in_memory.append(tabular.table_to_csv_bytes(table))

    monkeypatch.setattr(cli, "write_csv", both)
    (tmp_path / "data").mkdir()
    schema, data_dir, task = CASES[name](tmp_path / "data")
    assert cli.main(["flatten", "--schema", str(schema), "--task", task, "--quiet",
                     "--data-dir", str(data_dir), "--out", str(tmp_path / "flatten")]) == 0
    written = (tmp_path / "flatten" / "ds0.csv").read_bytes()
    assert in_memory == [written]
    assert _sha(written) == GOLDEN[name]["flatten/ds0.csv"]


def test_every_step_kind_is_run_covered_and_explained(tmp_path):
    # A kind in planner.STEP_KINDS needs an _Execution method of its name
    # taking its steps' params, a golden case whose plan has it, and an
    # explanation line naming the guidelines and the params its template reads.
    steps = {}
    for name, build in sorted(CASES.items()):
        (tmp_path / name).mkdir()
        schema_path, _, task = build(tmp_path / name)
        schema = eer.rewrite_many_to_many(dsl.parse_schema_file(str(schema_path))[0])
        plan = planner.compile_plan(schema, schema.task(task))
        lines = planner.explain_plan(plan).splitlines()[-len(plan.steps):]
        for i, (step, line) in enumerate(zip(plan.steps, lines), start=1):
            steps.setdefault(step.kind, []).append((i, step, line))
    assert set(steps) == set(planner.STEP_KINDS)
    for kind, (guidelines, template) in planner.STEP_KINDS.items():
        method = getattr(engine._Execution, kind)
        params = list(inspect.signature(method).parameters)[1:]
        fields = {f for _, f, _, _ in string.Formatter().parse(template) if f}
        tags = "".join(f"Guideline {g[1:]} ({planner.GUIDELINES[g]}): " for g in guidelines)
        for i, step, line in steps[kind]:
            assert list(step.params) == params, (kind, i)
            assert line.startswith(f"{i}. {tags}") and len(line) > len(f"{i}. {tags}")
            for f in fields:
                value = step.params[f]
                assert (", ".join(value) if isinstance(value, list) else str(value)) in line


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_pins_each_input_file_by_its_bytes(name, tmp_path, monkeypatch):
    # table_sha256 is `sha256sum <NAME>.csv` of every input, the from-table
    # subtypes' membership tables included
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    data = tmp_path / "data"
    data.mkdir()
    schema, data_dir, task = CASES[name](data)
    assert cli.main(["prepare", "--schema", str(schema), "--task", task, "--quiet",
                     "--data-dir", str(data_dir), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    files = {p.stem: _sha(p.read_bytes()) for p in Path(data_dir).glob("*.csv")}
    assert manifest["table_sha256"] == files
    if name == "from_table":
        assert set(files) == {"ACCOUNT", "GOLD", "TRIAL"}


def test_count_derivations_read_the_counted_rows(tmp_path, monkeypatch):
    # count(REL) has the child's rows as its source, as the G4 count does;
    # a derivation's summaries keep its sources
    monkeypatch.setenv("CMML_TODAY", "2019-06-01")
    sources = {}
    for name in ("chain", "collision", "skipped_edge"):
        (tmp_path / name).mkdir()
        schema, data_dir, task = CASES[name](tmp_path / name)
        out = tmp_path / f"{name}_out"
        assert cli.main(["prepare", "--schema", str(schema), "--task", task, "--quiet",
                         "--data-dir", str(data_dir), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        sources.update({f["name"]: f["source_attributes"]
                        for f in manifest["datasets"]["T"]["features"]})
    for agg in ("sum", "mean", "min", "max"):
        assert sources[f"ORDER_lines_{agg}"] == ["LINE.*"]            # count(CONTAINS)
        assert sources[f"ORDER_per_ship_{agg}"] == ["LINE.*", "ORDER.shipping"]
    assert sources["CUSTOMER_n"] == ["ORDER.*"]                        # count(PLACES)
    assert sources["ORDER_count"] == ["ORDER.*"]


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
