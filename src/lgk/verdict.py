"""Tri-state answers for semi-decidable questions.

Language- and graph-theoretic predicates in this package are often only
semi-decidable within a finite search budget.  Rather than collapsing to a
boolean, such predicates return a :class:`Verdict`: ``yes``, ``no`` (with a
finite witness of failure), or ``unknown`` (budget exhausted, with a note
saying which bound was hit).
"""

from __future__ import annotations

from typing import Any

from .record import Record

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class Verdict(Record):
    __slots__ = _fields = ("kind", "witness", "note")

    def __init__(self, kind: str, witness: Any = None, note: str = "") -> None:
        if kind not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad verdict kind: {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)

    @staticmethod
    def yes(note: str = "", witness: Any = None) -> "Verdict":
        return Verdict(YES, witness=witness, note=note)

    @staticmethod
    def no(witness: Any = None, note: str = "") -> "Verdict":
        return Verdict(NO, witness=witness, note=note)

    @staticmethod
    def unknown(note: str = "", witness: Any = None) -> "Verdict":
        return Verdict(UNKNOWN, witness=witness, note=note)

    @property
    def is_yes(self) -> bool:
        return self.kind == YES

    @property
    def is_no(self) -> bool:
        return self.kind == NO

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    def __str__(self) -> str:
        parts = [self.kind]
        if self.witness is not None:
            parts.append(f"witness={self.witness!r}")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)
