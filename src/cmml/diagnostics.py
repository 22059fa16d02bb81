"""Shared diagnostic records: severity, stable code, message, location."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


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
        return "\n".join(d.render() for d in self.diagnostics)

    def to_dicts(self) -> list[dict]:
        """One ``{severity, code, message, location}`` object per diagnostic."""
        return [asdict(d) for d in self.diagnostics]
