"""Shared diagnostic records: severity, stable code, message, location."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

RENDER_LIMIT = 5  # diagnostics of one (severity, code) that render() prints


def not_utf8(path: object, err: UnicodeDecodeError) -> str:
    """The message of an ``encoding`` error: the file, its first byte that is
    not UTF-8 and that byte's offset in the file."""
    return f"{path}: not UTF-8: byte 0x{err.object[err.start]:02x} at offset {err.start}"


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning" | "notice"
    code: str
    message: str
    location: Optional[str] = None  # "file:line:col", "TABLE:row:col", entity name, ...

    def render(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        return f"{self.severity}: {self.code}: {self.message}{loc}"


@dataclass
class Report:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, severity: str, code: str, message: str, location: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(severity, code, message, location))

    def error(self, code: str, message: str, location: Optional[str] = None) -> None:
        self.add("error", code, message, location)

    def warning(self, code: str, message: str, location: Optional[str] = None) -> None:
        self.add("warning", code, message, location)

    def notice(self, code: str, message: str, location: Optional[str] = None) -> None:
        self.add("notice", code, message, location)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        """One line per diagnostic, but at most ``RENDER_LIMIT`` of each
        (severity, code); the rest are counted on one line after them."""
        total = Counter((d.severity, d.code) for d in self.diagnostics)
        shown: Counter = Counter()
        lines = []
        for d in self.diagnostics:
            group = (d.severity, d.code)
            shown[group] += 1
            if shown[group] <= RENDER_LIMIT:
                lines.append(d.render())
            if shown[group] == RENDER_LIMIT and total[group] > RENDER_LIMIT:
                lines.append(f"… and {total[group] - RENDER_LIMIT} more {d.code} "
                             "(validate --json lists all)")
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        """One ``{severity, code, message, location}`` object per diagnostic."""
        return [{"severity": d.severity, "code": d.code, "message": d.message,
                 "location": d.location} for d in self.diagnostics]
