"""Textual schema format (.cmml): parser producing an EerSchema and a
canonical pretty-printer.

Top-level declarations are entity / relationship / generalization / task;
`#` starts a comment that runs to the end of the line, anywhere, including
inside an expression. The schema parser extends `cmml.expr`'s parser and reads
the same token stream, so embedded expressions (derivations, applicability and
membership predicates) are parsed in place: a derivation ends at the first
token that cannot continue it, and every diagnostic carries the offending
token's own file:line:column. A character that starts no token is reported as
`lex` and skipped. Parsing recovers at declaration boundaries so one bad
declaration does not hide diagnostics in the rest of the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import eer
from . import expr as ex
from .diagnostics import Report, not_utf8

KINDS = set(eer.ATTRIBUTE_KINDS)
_DECL_KEYWORDS = ("entity", "relationship", "generalization", "task")


@dataclass(frozen=True)
class SchemaSource:
    text: str
    origin: str = "<inline>"


class _SchemaParser(ex._Parser):
    """The expression parser extended with declarations. It reads one token
    stream, so an embedded expression is parsed in place and every error
    carries the offending token's own line and column."""

    def __init__(self, source: SchemaSource, rep: Report):
        self.source = source
        self.rep = rep
        toks = ex._tokenize(source.text)
        for t in toks:
            if t.kind == "bad":
                rep.error("lex", f"unexpected character {t.text!r}", self.loc(t))
        super().__init__([t for t in toks if t.kind != "bad"])

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def loc(self, t: ex._Tok) -> str:
        return f"{self.source.origin}:{t.line}:{t.col}"

    def fail(self, message: str, t: ex._Tok | None = None):
        t = t or self.peek()
        raise ex.ExprSyntaxError(message, t.line, t.col)

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}, got {t.text or 'end of input'!r}")
        return self.next().text

    def _recover(self) -> None:
        """Skip to the next top-level declaration keyword, balancing braces."""
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                if depth == 0:
                    self.next()
                    return
                depth -= 1
            elif depth == 0 and t.text in _DECL_KEYWORDS:
                return
            self.next()

    # -- embedded expressions --------------------------------------------------

    def _expr(self) -> ex.Expr:
        """An expression ending at the first token that cannot continue it."""
        try:
            return self.or_expr()
        except ex.ExprSyntaxError as err:
            raise ex.ExprSyntaxError(f"bad expression: {err.message}", err.line, err.column)

    def _paren_expr(self) -> ex.Expr:
        self.expect("(")
        e = self._expr()
        self.expect(")")
        return e

    def _arrow(self) -> None:
        """The relationship arrow: two adjacent '-' tokens."""
        a, b = self.peek(), self.toks[min(self.pos + 1, len(self.toks) - 1)]
        if not (a.text == b.text == "-" and (b.line, b.col) == (a.line, a.col + 1)):
            self.fail(f"expected '--', got {a.text or 'end of input'!r}")
        self.next()
        self.next()

    # -- declarations ----------------------------------------------------------

    def parse(self) -> eer.EerSchema:
        entities: list[eer.EntityType] = []
        relationships: list[eer.Relationship] = []
        generalizations: list[eer.Generalization] = []
        tasks: list[eer.TaskDecl] = []
        while self.peek().kind != "eof":
            t = self.peek()
            try:
                if t.text == "entity":
                    entities.append(self._entity())
                elif t.text == "relationship":
                    relationships.append(self._relationship())
                elif t.text == "generalization":
                    generalizations.append(self._generalization())
                elif t.text == "task":
                    tasks.append(self._task())
                else:
                    self.fail(f"expected a declaration, got {t.text!r}")
            except ex.ExprSyntaxError as err:
                self.rep.error("parse", err.message, f"{self.source.origin}:{err.line}:{err.column}")
                self._recover()
        return eer.EerSchema(
            entities=tuple(entities),
            relationships=tuple(relationships),
            generalizations=tuple(generalizations),
            tasks=tuple(tasks),
        )

    def _attr_block(self) -> tuple[eer.Attribute, ...]:
        self.expect("{")
        attrs: list[eer.Attribute] = []
        while not self.at("}"):
            attrs.append(self._attr())
        self.expect("}")
        return tuple(attrs)

    def _attr(self) -> eer.Attribute:
        t = self.peek()
        is_key = derived = False
        if t.text == "key":
            self.next()
            is_key = True
        elif t.text == "derived":
            self.next()
            self.expect("attr")
            derived = True
        elif t.text == "attr":
            self.next()
        else:
            self.fail(f"expected 'key', 'attr' or 'derived attr', got {t.text or 'end of input'!r}")
        name = self.ident("attribute name")
        self.expect(":")
        kind_tok = self.peek()
        kind = self.ident("attribute kind")
        if kind not in KINDS:
            self.fail(f"unknown attribute kind {kind!r}", kind_tok)
        optional = False
        applicable_when = None
        derivation = None
        if self.at("optional"):
            self.next()
            optional = True
        if self.at("applicable_when"):
            self.next()
            applicable_when = self._paren_expr()
        if self.at("="):
            eq = self.next()
            if not derived:
                self.fail("only 'derived attr' may carry '= expression'", eq)
            derivation = self._expr()
        if derived and derivation is None:
            self.fail(f"derived attribute {name!r} needs '= expression'")
        return eer.Attribute(name, kind, is_key=is_key, optional=optional,
                             applicable_when=applicable_when, derivation=derivation)

    def _entity(self) -> eer.EntityType:
        self.expect("entity")
        name_tok = self.peek()
        name = self.ident("entity name")
        attrs = self._attr_block()
        if not any(a.is_key for a in attrs):
            self.rep.error("missing-key", f"entity {name} lacks a key", self.loc(name_tok))
        return eer.EntityType(name, attrs)

    def _card(self) -> tuple[int, str]:
        self.expect("(")
        lo = self.peek()
        if lo.text not in ("0", "1"):
            self.fail("minimum cardinality must be 0 or 1")
        self.next()
        self.expect(",")
        hi = self.peek()
        if hi.text not in ("1", "N"):
            self.fail("maximum cardinality must be 1 or N")
        self.next()
        self.expect(")")
        return int(lo.text), hi.text

    def _relationship(self) -> eer.Relationship:
        self.expect("relationship")
        name = self.ident("relationship name")
        self.expect("{")
        left_entity = self.ident("entity name")
        left_min, left_max = self._card()
        self._arrow()
        right_min, right_max = self._card()
        right_entity = self.ident("entity name")
        self.expect("via")
        fks = [self.ident("foreign-key column")]
        if self.at(","):
            self.next()
            fks.append(self.ident("foreign-key column"))
        rel_attrs: tuple[eer.Attribute, ...] = ()
        if self.at("{"):
            rel_attrs = self._attr_block()
        self.expect("}")
        return eer.Relationship(
            name=name,
            left=eer.RelEnd(left_entity, left_min, left_max),
            right=eer.RelEnd(right_entity, right_min, right_max),
            fk_columns=tuple(fks),
            rel_attributes=rel_attrs,
        )

    def _generalization(self) -> eer.Generalization:
        self.expect("generalization")
        name = self.ident("generalization name")
        self.expect("of")
        supertype = self.ident("supertype entity")
        mode_tok = self.peek()
        mode = self.ident("'disjoint' or 'overlap'")
        if mode not in ("disjoint", "overlap"):
            self.fail(f"expected 'disjoint' or 'overlap', got {mode!r}", mode_tok)
        self.expect("{")
        subtypes: list[eer.Subtype] = []
        while self.at("subtype"):
            self.next()
            st_name = self.ident("subtype name")
            membership = None
            if self.at("when"):
                self.next()
                membership = self._paren_expr()
            elif self.at("from"):
                self.next()
                self.expect("table")
            else:
                self.fail("subtype needs 'when (expr)' or 'from table'")
            st_attrs: tuple[eer.Attribute, ...] = ()
            if self.at("{"):
                st_attrs = self._attr_block()
            subtypes.append(eer.Subtype(st_name, membership, st_attrs))
        self.expect("}")
        return eer.Generalization(name, supertype, mode, tuple(subtypes))

    def _task(self) -> eer.TaskDecl:
        self.expect("task")
        name = self.ident("task name")
        self.expect("{")
        self.expect("target")
        entity = self.ident("target entity")
        self.expect(".")
        attr = self.ident("target attribute")
        split_by = None
        agg_set = eer.AGG_SET_ALL
        top_k = 20
        impute = "mean_mode"
        while not self.at("}"):
            t = self.peek()
            if t.text == "split_by":
                self.next()
                split_by = self.ident("generalization name")
            elif t.text == "agg":
                self.next()
                aggs = [self.ident("aggregate name")]
                while self.at(","):
                    self.next()
                    aggs.append(self.ident("aggregate name"))
                for a in aggs:
                    if a not in eer.AGG_SET_ALL:
                        self.fail(f"unknown aggregate {a!r}", t)
                agg_set = tuple(aggs)
            elif t.text == "top_k":
                self.next()
                n = self.peek()
                if not n.text.isdigit():
                    self.fail("top_k needs a positive integer")
                self.next()
                top_k = int(n.text)
            elif t.text == "impute":
                self.next()
                m = self.ident("'mean_mode' or 'none'")
                if m not in ("mean_mode", "none"):
                    self.fail(f"impute must be 'mean_mode' or 'none', got {m!r}", t)
                impute = m
            else:
                self.fail(f"unexpected {t.text!r} in task body")
        self.expect("}")
        return eer.TaskDecl(name, entity, attr, split_by=split_by, agg_set=agg_set,
                            top_k=top_k, impute=impute)


def parse_schema(source: SchemaSource) -> tuple[eer.EerSchema, Report]:
    """Parse schema text. Diagnostics carry file:line:column; the schema holds
    every declaration that parsed, in source order."""
    rep = Report()
    schema = _SchemaParser(source, rep).parse()
    return schema, rep


def parse_schema_file(path: str) -> tuple[eer.EerSchema, Report]:
    """Parse a UTF-8 schema file, reading its newlines as ``open`` does. A
    file that is not UTF-8 gives an empty schema and one ``encoding`` error,
    worded as ``read_csv``'s."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        rep = Report()
        rep.error("encoding", not_utf8(path, err))
        return eer.EerSchema(), rep
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_schema(SchemaSource(text, origin=path))


# ---------------------------------------------------------------------------
# Pretty printer


def print_schema(schema: eer.EerSchema) -> SchemaSource:
    """Canonical text; parse_schema(print_schema(s)) is structurally equal to s."""
    out: list[str] = []
    for ent in schema.entities:
        out.append(f"entity {ent.name} {{")
        for a in ent.attributes:
            out.append(f"  {_attr_line(a)}")
        out.append("}")
        out.append("")
    for rel in schema.relationships:
        line = (
            f"relationship {rel.name} {{ {rel.left.entity} ({rel.left.min},{rel.left.max})"
            f" -- ({rel.right.min},{rel.right.max}) {rel.right.entity} via {', '.join(rel.fk_columns)}"
        )
        if rel.rel_attributes:
            out.append(line + " {")
            for a in rel.rel_attributes:
                out.append(f"  {_attr_line(a)}")
            out.append("} }")
        else:
            out.append(line + " }")
        out.append("")
    for gen in schema.generalizations:
        out.append(f"generalization {gen.name} of {gen.supertype} {gen.mode} {{")
        for st in gen.subtypes:
            head = f"  subtype {st.name} "
            head += "from table" if st.from_table else f"when ({ex.pretty_print(st.membership)})"
            if st.attributes:
                out.append(head + " {")
                for a in st.attributes:
                    out.append(f"    {_attr_line(a)}")
                out.append("  }")
            else:
                out.append(head)
        out.append("}")
        out.append("")
    for task in schema.tasks:
        out.append(f"task {task.name} {{")
        out.append(f"  target {task.target_entity}.{task.target_attr}")
        if task.split_by:
            out.append(f"  split_by {task.split_by}")
        if tuple(task.agg_set) != eer.AGG_SET_ALL:
            out.append(f"  agg {', '.join(task.agg_set)}")
        if task.top_k != 20:
            out.append(f"  top_k {task.top_k}")
        if task.impute != "mean_mode":
            out.append(f"  impute {task.impute}")
        out.append("}")
        out.append("")
    text = "\n".join(out).rstrip("\n")
    return SchemaSource(text + "\n" if text else "", origin="<printed>")


def _attr_line(a: eer.Attribute) -> str:
    head = "key" if a.is_key else ("derived attr" if a.is_derived else "attr")
    line = f"{head} {a.name}: {a.kind}"
    if a.optional:
        line += " optional"
    if a.applicable_when is not None:
        line += f" applicable_when ({ex.pretty_print(a.applicable_when)})"
    if a.derivation is not None:
        line += f" = {ex.pretty_print(a.derivation)}"
    return line
