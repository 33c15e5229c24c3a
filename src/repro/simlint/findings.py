"""Finding records produced by the simlint rules.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Last physical line of the flagged node — inline suppressions on
    #: any line of a multi-line statement cover the finding.
    end_line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "end_line": self.end_line,
        }
