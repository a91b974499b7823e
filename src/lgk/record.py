"""Immutable records, the package's one idiom for value types.

A record names its fields in ``_fields``.  Two records are equal when they
are of the same class and their field tuples are equal, a record's hash is
the hash of its field tuple, and its repr is ``Name(field=value, ...)``.
A subclass declares its ``__slots__`` (with ``__dict__`` when it caches
properties) and an ``__init__`` that validates its arguments and sets each
slot with ``object.__setattr__``; after that, setting or deleting an
attribute raises AttributeError.  A slot left out of ``_fields`` is no part
of the value.  Copying or unpickling a record calls its class on its field
values, so ``__init__`` takes the fields in order and validates them again.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        values = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            # attrgetter gives a bare value, not a 1-tuple, for one name
            value = values
            values = lambda record: (value(record),)
        cls._values = staticmethod(values)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
