"""Violation records: one rule breach at one source location."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Violation:
    """One rule breach at one source location."""

    rule: str
    path: str  # relative to the lint root, POSIX separators
    line: int
    col: int
    message: str
    symbol: str = ""  # enclosing function/class, when known

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule}{symbol} {self.message}"
