"""Randomized schema + conformant data generator for property tests.

Each seed produces a small star/chain schema rooted at ROOT (one to three
child entities, optionally a grandchild, optionally a generalization on the
root) plus a data bundle that binds cleanly.

Unless ``derived=False``, the schema also carries derived attributes at two
levels: plain ones on the children, aggregate-bearing ones on ROOT (and on
the first child when it has a grandchild) that read the children's derived
attributes and each other. Their operands include both null tags (a
subtype-only attribute is not applicable outside its subtype) and divisors
that are zero. They are drawn from a second random stream, so the rest of
the schema and the data are the same either way.
"""

import random

from cmml import binder, eer
from cmml.tabular import Column, DataBundle, Table
from cmml.values import is_null
from conftest import parse_full

KINDS = ("numeric", "nominal", "boolean", "text")
NOMINAL_POOL = ("red", "green", "blue", "amber")


def _attr_decls(rng, prefix, n):
    decls = []
    for i in range(n):
        kind = rng.choice(KINDS)
        decls.append((f"{prefix}{i}", kind))
    return decls


def _value(rng, kind):
    if kind == "numeric":
        return round(rng.uniform(-50, 50), 3)
    if kind == "nominal":
        return rng.choice(NOMINAL_POOL)
    if kind == "boolean":
        return rng.choice((True, False))
    return "note " + str(rng.randint(0, 99))


class Case:
    def __init__(self, seed, derived=True):
        rng = random.Random(seed)
        self.seed = seed
        self.rng = rng

        n_children = rng.randint(1, 3)
        self.children = [f"CHILD{i + 1}" for i in range(n_children)]
        self.grand = rng.random() < 0.5
        self.gen_mode = rng.choice((None, "disjoint", "overlap"))
        self.impute = rng.choice(("mean_mode", "none"))
        self.child_attrs = {c: _attr_decls(rng, "a", rng.randint(1, 3))
                            for c in self.children}
        self.grand_attrs = _attr_decls(rng, "g", rng.randint(1, 2)) if self.grand else []
        self.edge_kind = {c: rng.choice(("1N", "1N", "1N", "11")) for c in self.children}
        self.min_part = {c: (rng.choice((0, 1)) if self.edge_kind[c] == "1N" else 0)
                         for c in self.children}
        # entity -> [(name, kind, expression)]
        self.derived = self._derivations(random.Random(f"{seed}:derived")) if derived else {}

        self.schema = parse_full(self._schema_text())
        self.bundle = self._bundle()
        self.bound = binder.bind(self.schema, self.bundle)
        self.binding = eer.resolve_target(self.schema, self.schema.task("T"))

    # -- schema ---------------------------------------------------------------

    def _derivations(self, rng):
        """Derived attributes per entity. Child ``d0`` is plain; ``d1`` on the
        first child aggregates over GRAND; ROOT's ``r0`` aggregates over a
        child (its ``d0`` when it has one), ``r1`` reads ``r0`` or only counts
        a child's rows, and ``r2`` (with a generalization) a subtype-only
        attribute. ``d1`` may be a bare count as well: a count-only
        derivation reads no attribute, and its lineage names the counted
        rows (``GRAND.*``)."""
        out = {}

        def numeric(attrs):
            return [name for name, kind in attrs if kind == "numeric"]

        for c in self.children:
            nums = numeric(self.child_attrs[c])
            if nums:
                a, b = rng.choice(nums), rng.choice(nums)
                out[c] = [("d0", "numeric", rng.choice((
                    f"{a} * 2 - {b}", f"-{a}", f"{a} / ({b} - {b})", f"abs({a}) / {b}",
                    f"if({a} > 0, {a}, {b} / 0)")))]
        first = self.children[0]
        grand_nums = numeric(self.grand_attrs)
        if self.grand and grand_nums:
            g = rng.choice(grand_nums)
            mine = "d0" if out.get(first) else "1"
            out.setdefault(first, []).append(("d1", "numeric", rng.choice((
                f"sum(REL_GRAND.{g}) / count(REL_GRAND)", f"mean(REL_GRAND.{g}) + {mine}",
                f"max(REL_GRAND.{g}) - min(REL_GRAND.{g}) * {mine}", "count(REL_GRAND)"))))
        sources = {c: [d[0] for d in out.get(c, ())] + numeric(self.child_attrs[c])
                   for c in self.children}
        c = rng.choice([c for c in self.children if sources[c]] or self.children)
        if sources[c]:
            x = rng.choice(sources[c])
            r0 = rng.choice((f"sum(REL_{c}.{x}) + size", f"mean(REL_{c}.{x}) * size",
                             f"if(count(REL_{c}) > 1, max(REL_{c}.{x}), size)"))
        else:
            r0 = f"size / count(REL_{c})"
        root = [("r0", "numeric", r0), rng.choice((
            ("r1", "numeric", f"r0 / count(REL_{c})"),
            ("r1", "numeric", "if(r0 > size, r0, -size) / (size - size)"),
            ("r1", "boolean", f"r0 > size or count(REL_{c}) < 2"),
            ("r1", "numeric", f"count(REL_{c})")))]
        if self.gen_mode is not None:
            root.append(("r2", "numeric", rng.choice((
                "-low_x", "high_x + r0", "if(size < 0, low_x, high_x)"))))
        out["ROOT"] = root
        return out

    def _derived_decls(self, entity):
        return [f"  derived attr {name}: {kind} = {text}"
                for name, kind, text in self.derived.get(entity, ())]

    def _schema_text(self):
        parts = ["entity ROOT {", "  key rid: identifier",
                 "  attr t: numeric", "  attr size: numeric"]
        parts += self._derived_decls("ROOT")
        parts.append("}")
        for c in self.children:
            parts.append(f"entity {c} {{")
            parts.append(f"  key {c.lower()}_id: identifier")
            for name, kind in self.child_attrs[c]:
                parts.append(f"  attr {name}: {kind}")
            parts += self._derived_decls(c)
            parts.append("}")
        if self.grand:
            parts.append("entity GRAND {")
            parts.append("  key gid: identifier")
            for name, kind in self.grand_attrs:
                parts.append(f"  attr {name}: {kind}")
            parts.append("}")
        for c in self.children:
            if self.edge_kind[c] == "1N":
                parts.append(f"relationship REL_{c} {{ ROOT (1,1) -- "
                             f"({self.min_part[c]},N) {c} via rid }}")
            else:
                parts.append(f"relationship REL_{c} {{ ROOT (1,1) -- (0,1) {c} via rid }}")
        if self.grand:
            first = self.children[0]
            parts.append(f"relationship REL_GRAND {{ {first} (1,1) -- (0,N) GRAND "
                         f"via {first.lower()}_id }}")
        if self.gen_mode == "disjoint":
            parts.append("generalization SIZES of ROOT disjoint {")
            parts.append("  subtype LOW when (size < 0) { attr low_x: numeric }")
            parts.append("  subtype HIGH when (size >= 0) { attr high_x: numeric }")
            parts.append("}")
        elif self.gen_mode == "overlap":
            parts.append("generalization SIZES of ROOT overlap {")
            parts.append("  subtype LOW when (size < 10) { attr low_x: numeric }")
            parts.append("  subtype HIGH when (size >= -10) { attr high_x: numeric }")
            parts.append("}")
        parts.append(f"task T {{ target ROOT.t impute {self.impute} }}")
        return "\n".join(parts)

    # -- data -----------------------------------------------------------------

    def _bundle(self):
        rng = self.rng
        bundle = DataBundle()

        def table_for(entity):
            cols = [Column(a.name, a.kind) for a in self.schema.effective_columns(entity)]
            ent = self.schema.entity(entity)
            return Table(entity, cols, key_columns=list(ent.key_names))

        root = table_for("ROOT")
        n_root = rng.randint(3, 10)
        self.root_keys = [f"r{i}" for i in range(n_root)]
        for k in self.root_keys:
            size = round(rng.uniform(-20, 20), 2)
            t = None if rng.random() < 0.1 else round(rng.uniform(0, 100), 2)
            row = {"rid": k, "t": t, "size": size}
            if self.gen_mode == "disjoint":
                member = "low_x" if size < 0 else "high_x"
                row[member] = None if rng.random() < 0.3 else round(rng.uniform(0, 9), 2)
                row["low_x" if member == "high_x" else "high_x"] = None
            elif self.gen_mode == "overlap":
                row["low_x"] = (None if not size < 10 or rng.random() < 0.3
                                else round(rng.uniform(0, 9), 2))
                row["high_x"] = (None if not size >= -10 or rng.random() < 0.3
                                 else round(rng.uniform(0, 9), 2))
            root.rows.append([row.get(c) for c in root.column_names])
        bundle.add(root)

        self.fanout = {}
        child_keys = {}
        for c in self.children:
            t = table_for(c)
            child_keys[c] = []
            seq = 0
            for rk in self.root_keys:
                if self.edge_kind[c] == "1N":
                    lo = self.min_part[c]
                    f = rng.randint(lo, 3)
                else:
                    f = rng.randint(0, 1)
                self.fanout[(c, rk)] = f
                for _ in range(f):
                    key = f"{c.lower()}{seq}"
                    seq += 1
                    child_keys[c].append(key)
                    row = {f"{c.lower()}_id": key, "rid": rk}
                    for name, kind in self.child_attrs[c]:
                        row[name] = None if rng.random() < 0.15 else _value(rng, kind)
                    t.rows.append([row.get(col) for col in t.column_names])
            bundle.add(t)

        if self.grand:
            first = self.children[0]
            t = table_for("GRAND")
            seq = 0
            for ck in child_keys[first]:
                f = rng.randint(0, 2)
                self.fanout[("GRAND", ck)] = f
                for _ in range(f):
                    row = {"gid": f"g{seq}", f"{first.lower()}_id": ck}
                    seq += 1
                    for name, kind in self.grand_attrs:
                        row[name] = None if rng.random() < 0.15 else _value(rng, kind)
                    t.rows.append([row.get(col) for col in t.column_names])
            bundle.add(t)
        return bundle

    # -- oracles ----------------------------------------------------------------

    def root_rows(self):
        t = self.bundle.table("ROOT")
        ti = t.column_index("t")
        return {r[0]: r for r in t.rows}, ti

    def keys_with_target(self):
        rows, ti = self.root_rows()
        return {k for k, r in rows.items() if not is_null(r[ti])}

    def member_keys(self, subtype):
        rows, _ = self.root_rows()
        t = self.bundle.table("ROOT")
        si = t.column_index("size")
        out = set()
        for k, r in rows.items():
            size = r[si]
            if self.gen_mode == "disjoint":
                member = size < 0 if subtype == "LOW" else size >= 0
            else:
                member = size < 10 if subtype == "LOW" else size >= -10
            if member:
                out.add(k)
        return out

    def ds0_row_count(self):
        """Brute-force left-join simulation, independent of the engine."""
        counts = {}
        for rk in self.root_keys:
            n = 1
            for c in self.children:
                f = self.fanout[(c, rk)]
                if c == self.children[0] and self.grand:
                    # expand each first-child row by its own grandchildren
                    sub = 0
                    gseq_keys = self._child_keys_of(c, rk)
                    for ck in gseq_keys:
                        sub += max(1, self.fanout[("GRAND", ck)])
                    branch = max(1, sub) if f else 1
                else:
                    branch = max(1, f)
                n *= branch
            counts[rk] = n
        return sum(counts.values())

    def _child_keys_of(self, c, rk):
        t = self.bundle.table(c)
        ki = t.column_index(f"{c.lower()}_id")
        fi = t.column_index("rid")
        return [r[ki] for r in t.rows if r[fi] == rk]
