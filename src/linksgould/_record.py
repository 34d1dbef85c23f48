"""
The package's frozen records, as plain classes over ``__slots__``.

A record lists its fields in ``__slots__`` (ending in ``"__dict__"`` when
it caches properties), sets them in its own ``__init__`` with
``object.__setattr__`` and runs its checks there.  ``Record`` gives it a
repr naming every field, refuses assignment and deletion, copies and
pickles it through its constructor and, unless the class is declared
with ``eq=False``, compares and hashes it by type and fields: the
behaviour of a frozen dataclass, without importing ``dataclasses`` and
``inspect`` at start-up.
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
