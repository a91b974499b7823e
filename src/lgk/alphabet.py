"""Alphabets and words.

A symbol is an index into an :class:`Alphabet`, which maps indices to display
names.  A word is a tuple of symbol indices; the empty tuple is the empty
word.  Display names must be nonempty, unique, and free of whitespace so that
space-separated word strings parse unambiguously.
"""

from __future__ import annotations

from typing import Iterable

from .record import Record

Word = tuple[int, ...]


class Alphabet(Record):
    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        object.__setattr__(self, "names", names)
        self.__post_init__()

    # Kept apart from __init__ under this name: the benchmark tracer
    # (lgkbench/tracer.py) counts constructions by wrapping it.
    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet must be nonempty")
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad symbol name {name!r}")
            if name in index:
                raise ValueError(f"duplicate symbol name {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"symbol {name!r} not in alphabet {list(self.names)}") from None

    def word(self, text: str) -> Word:
        """Parse a word from text.

        Whitespace-separated tokens are symbol names.  As a convenience for
        single-character alphabets, a token that is not itself a symbol name
        is split into characters ("101" over {"0","1"} means "1 0 1").
        """
        symbols: list[int] = []
        for token in text.split():
            if token in self._index:
                symbols.append(self._index[token])
            else:
                for ch in token:
                    if ch not in self._index:
                        raise KeyError(
                            f"cannot read {token!r} over alphabet {list(self.names)}"
                        )
                    symbols.append(self._index[ch])
        return tuple(symbols)

    def text(self, word: Iterable[int]) -> str:
        return " ".join(self.names[s] for s in word)

    def extend(self, name: str) -> "Alphabet":
        """A new alphabet with one extra symbol appended."""
        return Alphabet(self.names + (name,))


def bracket_alphabet(n: int) -> Alphabet:
    """Alphabet of a Dyck-type shift: opens a1..aN then closes b1..bN."""
    if n < 2:
        raise ValueError("bracket alphabets need at least 2 bracket pairs")
    return Alphabet(
        tuple(f"a{i + 1}" for i in range(n)) + tuple(f"b{i + 1}" for i in range(n))
    )
