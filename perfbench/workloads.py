"""Seeded workload generators and their independent output oracles.

Every generator builds a schema text and one table per entity from
``random.Random(seed)`` alone; row counts are fixed by the workload, only
values and fan-out order vary with the seed. The expected outputs the
oracles compare against are computed here, from the generated rows, never
by the program under test.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

CLOCK = "2024-06-01"  # pinned as CMML_TODAY for every command
TOP_K = 20            # the planner's default; no workload task sets top_k

# maps prepare's output datasets (rows as header -> cell dicts) to failure messages
PrepareCheck = Callable[[dict[str, list[dict]]], list[str]]


@dataclass
class TableData:
    name: str
    columns: list[str]
    rows: list[list]


@dataclass
class Edge:
    """A parent-to-child relationship as the generator built it."""
    relationship: str
    parent: str
    child: str
    fk: str           # column of the child that holds the parent key
    to_many: bool     # N side (summarized) rather than a single partner


@dataclass
class Workload:
    name: str
    schema_text: str
    tables: dict[str, TableData]
    root: str
    edges: list[Edge]                       # spanning tree, parent before child
    tasks: dict[str, str]                   # command -> task name
    value_range: float                      # passed to evaluate --range

    # -- helpers over the generated rows ------------------------------------

    def rows_as_dicts(self, name: str) -> list[dict]:
        t = self.tables[name]
        return [dict(zip(t.columns, r)) for r in t.rows]

    def key_of(self, name: str) -> str:
        return self.tables[name].columns[0]

    def children(self, edge: Edge) -> dict[object, list[dict]]:
        out: dict[object, list[dict]] = {}
        for r in self.rows_as_dicts(edge.child):
            out.setdefault(r[edge.fk], []).append(r)
        return out


# ---------------------------------------------------------------------------
# CSV emission (the benchmark's own writer, so set-up does not run program code)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dt.date):
        return v.isoformat()
    return str(v)


def write_workload(wl: Workload, data_dir: Path) -> Path:
    """Write ``<ENTITY>.csv`` per table and ``schema.cmml``; return the schema path."""
    data_dir.mkdir(parents=True, exist_ok=True)
    for t in wl.tables.values():
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(t.columns)
        for r in t.rows:
            w.writerow([_cell(v) for v in r])
        (data_dir / f"{t.name}.csv").write_text(buf.getvalue(), encoding="utf-8")
    schema = data_dir / "schema.cmml"
    schema.write_text(wl.schema_text, encoding="utf-8")
    return schema


def _fanouts(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """A fixed multiset of fan-outs (so totals do not depend on the seed), shuffled."""
    out = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(out)
    return out


def _maybe(rng: random.Random, value, p_null: float):
    return None if rng.random() < p_null else value


# ---------------------------------------------------------------------------
# Oracles shared by the workloads


def expected_flat_rows(wl: Workload) -> int:
    """Brute-force left-join row count along the spanning tree: a row expands
    into the product over its child edges of the rows its children expand to,
    with an absent partner counting as one row."""
    kids = {e.child: wl.children(e) for e in wl.edges}
    by_parent: dict[str, list[Edge]] = {}
    for e in wl.edges:
        by_parent.setdefault(e.parent, []).append(e)

    def expand(entity: str, row: dict) -> int:
        n = 1
        for e in by_parent.get(entity, []):
            sub = sum(expand(e.child, c) for c in kids[e.child].get(row[wl.key_of(entity)], []))
            n *= max(1, sub)
        return n

    return sum(expand(wl.root, r) for r in wl.rows_as_dicts(wl.root))


def expected_summaries(wl: Workload, numeric: dict[str, list[str]],
                       nominal: dict[str, list[str]],
                       boolean: dict[str, list[str]]) -> dict[object, dict[str, float]]:
    """Every ``*_count`` and ``*_sum`` column the root should carry, recounted
    from the generated child tables: per-child counts, numeric sums (nulls
    skipped, empty sum 0), top-k category counts with the rest pooled as
    OTHER, true-counts, and the same aggregates of grandchild summaries one
    level up. ``numeric``/``nominal``/``boolean`` list each entity's raw
    summarizable attributes."""
    kids = {e.child: wl.children(e) for e in wl.edges if e.to_many}
    by_parent: dict[str, list[Edge]] = {}
    for e in wl.edges:
        if e.to_many:
            by_parent.setdefault(e.parent, []).append(e)
    kept: dict[tuple[str, str], tuple[list[str], bool]] = {}
    for ent, attrs in nominal.items():
        rows = wl.rows_as_dicts(ent)
        for a in attrs:
            freq: dict[str, int] = {}
            for r in rows:
                if r[a] is not None:
                    freq[r[a]] = freq.get(r[a], 0) + 1
            ordered = sorted(freq, key=lambda c: (-freq[c], c))
            kept[(ent, a)] = (ordered[:TOP_K], len(ordered) > TOP_K)

    def features(entity: str, row: dict) -> dict[str, Optional[float]]:
        """Numeric working columns of one entity row, named as the engine names them."""
        out = {a: row[a] for a in numeric.get(entity, [])}
        for e in by_parent.get(entity, []):
            c = e.child
            rows = kids[c].get(row[wl.key_of(entity)], [])
            out[f"{c}_count"] = float(len(rows))
            child_feats = [features(c, r) for r in rows]
            names = list(numeric.get(c, [])) + [n for n in (child_feats[0] if child_feats else
                                                          features(c, _blank(wl, c)))
                                                if n not in numeric.get(c, [])]
            for n in names:
                vals = [f[n] for f in child_feats if f[n] is not None]
                out[f"{c}_{n}_sum"] = float(sum(vals))
                out[f"{c}_{n}_mean"] = float(sum(vals)) / len(vals) if vals else None
                out[f"{c}_{n}_min"] = min(vals) if vals else None
                out[f"{c}_{n}_max"] = max(vals) if vals else None
            for a in nominal.get(c, []):
                cats, pooled = kept[(c, a)]
                for cat in cats:
                    out[f"{c}_{a}_{cat}_count"] = float(sum(1 for r in rows if r[a] == cat))
                if pooled:
                    out[f"{c}_{a}_OTHER_count"] = float(
                        sum(1 for r in rows if r[a] is not None and r[a] not in cats))
            for a in boolean.get(c, []):
                out[f"{c}_{a}_true_count"] = float(sum(1 for r in rows if r[a] is True))
        return out

    root_key = wl.key_of(wl.root)
    result = {}
    for r in wl.rows_as_dicts(wl.root):
        feats = features(wl.root, r)
        result[r[root_key]] = {k: v for k, v in feats.items()
                               if k.endswith(("_count", "_sum")) and k not in numeric.get(wl.root, [])}
    return result


def _blank(wl: Workload, entity: str) -> dict:
    return {c: None for c in wl.tables[entity].columns}


def _num(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_summaries(dataset: str, rows: list[dict], key_col: str,
                    expected: dict[object, dict[str, float]]) -> list[str]:
    if not rows:
        return [f"{dataset}: no rows"]
    cols = [c for c in rows[0] if c.endswith(("_count", "_sum"))]
    want = set(next(iter(expected.values())))
    errors = []
    if set(cols) != want:
        errors.append(f"{dataset}: summary columns differ: missing {sorted(want - set(cols))}, "
                      f"unexpected {sorted(set(cols) - want)}")
        return errors
    for r in rows:
        exp = expected[r[key_col]]
        for c in cols:
            if not _close(_num(r[c]), exp[c]):
                errors.append(f"{dataset}: {r[key_col]} {c} = {r[c]!r}, recount gives {exp[c]!r}")
                if len(errors) > 5:
                    return errors
    return errors


def _target_rows(wl: Workload, target: str) -> list[dict]:
    return [r for r in wl.rows_as_dicts(wl.root) if r[target] is not None]


def _known(target: str) -> Callable[[Workload], int]:
    """Counts root rows whose stored ``target`` is not null."""
    return lambda wl: len(_target_rows(wl, target))


# ---------------------------------------------------------------------------
# ltv_eval: the paper's headline comparison on one 1:N edge


LTV_SCHEMA = """\
entity CUSTOMER {
  key cust_id: identifier
  attr gender: nominal
  attr ltv: numeric
}

entity ORDER {
  key order_id: identifier
  attr total: numeric
  attr channel: nominal
}

relationship PLACES { CUSTOMER (1,1) -- (1,N) ORDER via cust_id }

task PREDICT_LTV { target CUSTOMER.ltv }
"""


def ltv_eval(seed: int, customers: int = 1800) -> Workload:
    """The evalkit synthetic model (Uniform{1..8} orders per customer; ltv =
    3*mean(total) + 2*count + N(0, 15)), generated here so the inputs do not
    depend on the program under test."""
    rng = random.Random(seed)
    cust = TableData("CUSTOMER", ["cust_id", "gender", "ltv"], [])
    orders = TableData("ORDER", ["order_id", "total", "channel", "cust_id"], [])
    seq = 1
    for c, fanout in enumerate(_fanouts(rng, customers, 1, 8), start=1):
        cid = f"C{c:05d}"
        totals = []
        for _ in range(fanout):
            total = round(rng.uniform(10.0, 100.0), 2)
            totals.append(total)
            orders.rows.append([f"O{seq:06d}", total, rng.choice(("Online", "Phone", "Store")), cid])
            seq += 1
        ltv = 3.0 * sum(totals) / len(totals) + 2.0 * fanout + rng.gauss(0.0, 15.0)
        cust.rows.append([cid, rng.choice(("F", "M")), round(ltv, 6)])
    return Workload(
        name="ltv_eval", schema_text=LTV_SCHEMA,
        tables={"CUSTOMER": cust, "ORDER": orders}, root="CUSTOMER",
        edges=[Edge("PLACES", "CUSTOMER", "ORDER", "cust_id", True)],
        tasks={"prepare": "PREDICT_LTV", "flatten": "PREDICT_LTV", "evaluate": "PREDICT_LTV"},
        value_range=3.0 * 90.0 + 2.0 * 7.0,  # span of the noise-free target
    )


def ltv_oracle(wl: Workload) -> PrepareCheck:
    summaries = expected_summaries(wl, {"ORDER": ["total"]}, {"ORDER": ["channel"]}, {})

    def check(out: dict[str, list[dict]]) -> list[str]:
        rows = out.get("PREDICT_LTV", [])
        errors = check_summaries("PREDICT_LTV", rows, "CUSTOMER_cust_id", summaries)
        if len(rows) != len(_target_rows(wl, "ltv")):
            errors.append(f"PREDICT_LTV: {len(rows)} rows, expected {len(_target_rows(wl, 'ltv'))}")
        return errors

    return check


# ---------------------------------------------------------------------------
# star_split: a wide star with every attribute kind, nulls and a subtype split


STAR_SCHEMA = """\
entity CUSTOMER {
  key cust_id: identifier
  attr age: numeric
  attr income: numeric
  attr region: nominal
  attr employed: boolean
  attr salary: numeric applicable_when (employed = true)
  attr joined: date
  attr note: text
  attr spend: numeric
}

entity VISIT {
  key visit_id: identifier
  attr minutes: numeric
  attr device: nominal
  attr converted: boolean
  attr day: date
  attr remark: text
}

entity PURCHASE {
  key purchase_id: identifier
  attr amount: numeric
  attr category: nominal
  attr gift: boolean
}

entity REVIEW {
  key review_id: identifier
  attr stars: numeric
  attr verified: boolean
}

entity TICKET {
  key ticket_id: identifier
  attr severity: numeric
  attr topic: nominal
  attr resolved: boolean
}

entity PROFILE {
  key profile_id: identifier
  attr score: numeric
  attr tier: nominal
  attr opted_in: boolean
}

relationship MAKES { CUSTOMER (1,1) -- (0,N) VISIT via cust_id }
relationship BUYS { CUSTOMER (1,1) -- (0,N) PURCHASE via cust_id }
relationship RAISES { CUSTOMER (1,1) -- (0,N) TICKET via cust_id }
relationship HAS { CUSTOMER (1,1) -- (0,1) PROFILE via cust_id }
relationship RATED { PURCHASE (1,1) -- (0,N) REVIEW via purchase_id }

generalization SEGMENT of CUSTOMER disjoint {
  subtype RETAIL when (income < 60000) { attr coupons: numeric }
  subtype BUSINESS when (income >= 60000) { attr seats: numeric }
}

generalization AGE_BAND of CUSTOMER overlap {
  subtype YOUNG when (age < 40)
  subtype SENIOR when (age >= 30)
}

task SPEND_BY_SEGMENT { target CUSTOMER.spend split_by SEGMENT }

task SPEND { target CUSTOMER.spend }
"""

STAR_CATEGORIES = [f"cat{i:02d}" for i in range(30)]  # more than TOP_K
STAR_REGIONS = ("north", "south", "east", "west", "centre", "islands")


def star_split(seed: int, customers: int = 900) -> Workload:
    rng = random.Random(seed)
    p = 0.10  # share of null cells in nullable attributes
    t = {
        "CUSTOMER": TableData("CUSTOMER", ["cust_id", "age", "income", "region", "employed",
                                           "salary", "joined", "note", "spend",
                                           "coupons", "seats"], []),
        "VISIT": TableData("VISIT", ["visit_id", "minutes", "device", "converted", "day",
                                     "remark", "cust_id"], []),
        "PURCHASE": TableData("PURCHASE", ["purchase_id", "amount", "category", "gift",
                                           "cust_id"], []),
        "REVIEW": TableData("REVIEW", ["review_id", "stars", "verified", "purchase_id"], []),
        "TICKET": TableData("TICKET", ["ticket_id", "severity", "topic", "resolved", "cust_id"], []),
        "PROFILE": TableData("PROFILE", ["profile_id", "score", "tier", "opted_in", "cust_id"], []),
    }
    visits = _fanouts(rng, customers, 0, 4)
    buys = _fanouts(rng, customers, 0, 3)
    tickets = _fanouts(rng, customers, 0, 2)
    has_profile = _fanouts(rng, customers, 0, 1)
    cat_weights = [1.0 / (1 + i) for i in range(len(STAR_CATEGORIES))]
    base = dt.date(2015, 1, 1)
    seq = {k: 0 for k in t}

    def next_id(table: str, prefix: str) -> str:
        seq[table] += 1
        return f"{prefix}{seq[table]:06d}"

    for c in range(customers):
        cid = f"C{c + 1:05d}"
        age = float(rng.randint(18, 80))
        income = round(rng.uniform(20000.0, 120000.0), 2)
        employed = rng.random() < 0.7
        salary = round(income * rng.uniform(0.5, 0.9), 2) if employed else None
        spend_parts = []
        for _ in range(visits[c]):
            minutes = round(rng.uniform(1.0, 90.0), 1)
            t["VISIT"].rows.append([
                next_id("VISIT", "V"), _maybe(rng, minutes, p),
                _maybe(rng, rng.choice(("web", "ios", "android")), p),
                _maybe(rng, rng.random() < 0.3, p),
                _maybe(rng, base + dt.timedelta(days=rng.randint(0, 3000)), p),
                _maybe(rng, f"visit note {rng.randint(0, 999)}", p), cid])
            spend_parts.append(0.5 * minutes)
        for _ in range(buys[c]):
            pid = next_id("PURCHASE", "P")
            amount = round(rng.uniform(5.0, 400.0), 2)
            t["PURCHASE"].rows.append([
                pid, _maybe(rng, amount, p),
                _maybe(rng, rng.choices(STAR_CATEGORIES, cat_weights)[0], p),
                _maybe(rng, rng.random() < 0.1, p), cid])
            spend_parts.append(amount)
            for _ in range(rng.randint(0, 2)):
                t["REVIEW"].rows.append([
                    next_id("REVIEW", "R"), _maybe(rng, float(rng.randint(1, 5)), p),
                    _maybe(rng, rng.random() < 0.5, p), pid])
        for _ in range(tickets[c]):
            t["TICKET"].rows.append([
                next_id("TICKET", "T"), _maybe(rng, float(rng.randint(1, 4)), p),
                _maybe(rng, rng.choice(("billing", "delivery", "product", "account")), p),
                _maybe(rng, rng.random() < 0.8, p), cid])
        if has_profile[c]:
            t["PROFILE"].rows.append([
                next_id("PROFILE", "F"), _maybe(rng, round(rng.uniform(0.0, 1.0), 4), p),
                _maybe(rng, rng.choice(("bronze", "silver", "gold")), p),
                _maybe(rng, rng.random() < 0.5, p), cid])
        spend = round(sum(spend_parts) + 0.001 * income + rng.gauss(0.0, 25.0), 4)
        retail = income < 60000
        t["CUSTOMER"].rows.append([
            cid, _maybe(rng, age, p), income, _maybe(rng, rng.choice(STAR_REGIONS), p),
            _maybe(rng, employed, p), _maybe(rng, salary, p) if employed else None,
            _maybe(rng, base + dt.timedelta(days=rng.randint(0, 3000)), p),
            _maybe(rng, f"customer note {rng.randint(0, 99)}", p),
            _maybe(rng, spend, 0.02),
            _maybe(rng, float(rng.randint(0, 20)), p) if retail else None,
            _maybe(rng, float(rng.randint(1, 500)), p) if not retail else None])

    return Workload(
        name="star_split", schema_text=STAR_SCHEMA, tables=t, root="CUSTOMER",
        edges=[Edge("MAKES", "CUSTOMER", "VISIT", "cust_id", True),
               Edge("BUYS", "CUSTOMER", "PURCHASE", "cust_id", True),
               Edge("RAISES", "CUSTOMER", "TICKET", "cust_id", True),
               Edge("HAS", "CUSTOMER", "PROFILE", "cust_id", False),
               Edge("RATED", "PURCHASE", "REVIEW", "purchase_id", True)],
        tasks={"prepare": "SPEND_BY_SEGMENT", "flatten": "SPEND_BY_SEGMENT", "evaluate": "SPEND"},
        value_range=4.0 * 45.0 + 3.0 * 400.0 + 120.0,  # span of the noise-free target
    )


def star_oracle(wl: Workload) -> PrepareCheck:
    summaries = expected_summaries(
        wl,
        numeric={"VISIT": ["minutes"], "PURCHASE": ["amount"], "REVIEW": ["stars"],
                 "TICKET": ["severity"]},
        nominal={"VISIT": ["device"], "PURCHASE": ["category"], "TICKET": ["topic"]},
        boolean={"VISIT": ["converted"], "PURCHASE": ["gift"], "REVIEW": ["verified"],
                 "TICKET": ["resolved"]},
    )
    members = {
        "RETAIL": {r["cust_id"] for r in _target_rows(wl, "spend") if r["income"] < 60000},
        "BUSINESS": {r["cust_id"] for r in _target_rows(wl, "spend") if r["income"] >= 60000},
    }
    own = {"RETAIL": "coupons", "BUSINESS": "seats"}
    not_employed = {r["cust_id"] for r in wl.rows_as_dicts("CUSTOMER") if r["employed"] is False}

    def check(out: dict[str, list[dict]]) -> list[str]:
        errors = []
        for st, keys in members.items():
            name = f"SPEND_BY_SEGMENT_{st}"
            rows = out.get(name)
            if rows is None:
                errors.append(f"missing dataset {name}")
                continue
            got = {r["CUSTOMER_cust_id"] for r in rows}
            if got != keys:
                errors.append(f"{name}: {len(got)} rows, expected the {len(keys)} members")
                continue
            sibling = own["BUSINESS" if st == "RETAIL" else "RETAIL"]
            if rows and any(sibling in c for c in rows[0]):
                errors.append(f"{name}: carries the sibling subtype column {sibling!r}")
            if rows and f"{st}_{own[st]}" not in rows[0]:
                errors.append(f"{name}: lacks its own subtype column {st}_{own[st]}")
            filled = [r["CUSTOMER_cust_id"] for r in rows
                      if r["CUSTOMER_cust_id"] in not_employed and r.get("CUSTOMER_salary", "") != ""]
            if filled:
                errors.append(f"{name}: CUSTOMER_salary filled on {len(filled)} not-applicable rows")
            errors += check_summaries(name, rows, "CUSTOMER_cust_id", summaries)
        return errors

    return check


# ---------------------------------------------------------------------------
# chain_derive: a three-level chain with aggregate-bearing derivations


CHAIN_SCHEMA = """\
entity CUSTOMER {
  key cust_id: identifier
  attr segment: nominal
  attr bonus: numeric
  derived attr value: numeric = 0.1 * sum(PLACES.basket) + bonus
}

entity ORDER {
  key order_id: identifier
  attr shipping: numeric
  derived attr basket: numeric = sum(CONTAINS.price) + shipping
}

entity LINE {
  key line_id: identifier
  attr qty: numeric
  attr unit_price: numeric
  derived attr price: numeric = qty * unit_price
}

relationship PLACES { CUSTOMER (1,1) -- (1,N) ORDER via cust_id }
relationship CONTAINS { ORDER (1,1) -- (1,N) LINE via order_id }

task PREDICT_VALUE { target CUSTOMER.value }
"""


def chain_derive(seed: int, customers: int = 750) -> Workload:
    rng = random.Random(seed)
    cust = TableData("CUSTOMER", ["cust_id", "segment", "bonus"], [])
    orders = TableData("ORDER", ["order_id", "shipping", "cust_id"], [])
    lines = TableData("LINE", ["line_id", "qty", "unit_price", "order_id"], [])
    per_cust = _fanouts(rng, customers, 1, 7)
    per_order = _fanouts(rng, sum(per_cust), 1, 5)
    o_seq = l_seq = 0
    for c, n_orders in enumerate(per_cust):
        cid = f"C{c + 1:05d}"
        cust.rows.append([cid, rng.choice(("a", "b", "c", "d")),
                          _maybe(rng, round(rng.gauss(0.0, 20.0), 4), 0.03)])
        for _ in range(n_orders):
            oid = f"O{o_seq + 1:06d}"
            orders.rows.append([oid, _maybe(rng, round(rng.uniform(0.0, 15.0), 2), 0.05), cid])
            for _ in range(per_order[o_seq]):
                lines.rows.append([f"L{l_seq + 1:07d}", _maybe(rng, float(rng.randint(1, 4)), 0.02),
                                   _maybe(rng, round(rng.uniform(1.0, 50.0), 2), 0.02), oid])
                l_seq += 1
            o_seq += 1
    return Workload(
        name="chain_derive", schema_text=CHAIN_SCHEMA,
        tables={"CUSTOMER": cust, "ORDER": orders, "LINE": lines}, root="CUSTOMER",
        edges=[Edge("PLACES", "CUSTOMER", "ORDER", "cust_id", True),
               Edge("CONTAINS", "ORDER", "LINE", "order_id", True)],
        tasks={"prepare": "PREDICT_VALUE", "flatten": "PREDICT_VALUE", "evaluate": "PREDICT_VALUE"},
        value_range=0.1 * 7 * (5 * 4 * 50.0 + 15.0),  # span of the noise-free target
    )


def chain_oracle(wl: Workload) -> PrepareCheck:
    expected = chain_targets(wl)

    def check(out: dict[str, list[dict]]) -> list[str]:
        rows = out.get("PREDICT_VALUE", [])
        want = {k: v for k, v in expected.items() if v is not None}
        got = {r["CUSTOMER_cust_id"]: _num(r["CUSTOMER_value"]) for r in rows}
        if set(got) != set(want):
            return [f"PREDICT_VALUE: {len(got)} rows, expected {len(want)} with a known target"]
        bad = [k for k in want if not _close(got[k], want[k])]
        return [f"PREDICT_VALUE: {k} value {got[k]!r}, recomputed {want[k]!r}" for k in bad[:5]]

    return check


def chain_targets(wl: Workload) -> dict[str, Optional[float]]:
    """CUSTOMER.value recomputed by hand with null propagation: a product or
    sum with a null operand is null; sum() over related rows skips nulls and
    is 0 over none."""
    price_by_order: dict[str, list[float]] = {}
    for r in wl.rows_as_dicts("LINE"):
        if r["qty"] is not None and r["unit_price"] is not None:
            price_by_order.setdefault(r["order_id"], []).append(r["qty"] * r["unit_price"])
    baskets: dict[str, list[float]] = {}
    for r in wl.rows_as_dicts("ORDER"):
        if r["shipping"] is not None:
            basket = float(sum(price_by_order.get(r["order_id"], []))) + r["shipping"]
            baskets.setdefault(r["cust_id"], []).append(basket)
    out = {}
    for r in wl.rows_as_dicts("CUSTOMER"):
        b = r["bonus"]
        out[r["cust_id"]] = None if b is None else 0.1 * float(sum(baskets.get(r["cust_id"], []))) + b
    return out


def chain_known(wl: Workload) -> int:
    return sum(1 for v in chain_targets(wl).values() if v is not None)


# name -> (generator, oracle over the prepare outputs, customers with a known
# target: the grain evaluate scores at)
WORKLOADS = {"ltv_eval": (ltv_eval, ltv_oracle, _known("ltv")),
             "star_split": (star_split, star_oracle, _known("spend")),
             "chain_derive": (chain_derive, chain_oracle, chain_known)}


def expected_fanouts(wl: Workload) -> dict[str, tuple[int, int]]:
    """Observed (min, max) partners per parent row for every relationship."""
    out = {}
    for e in wl.edges:
        kids = wl.children(e)
        key = wl.key_of(e.parent)
        counts = [len(kids.get(r[key], [])) for r in wl.rows_as_dicts(e.parent)]
        out[e.relationship] = (min(counts), max(counts))
    return out
