"""The base of the package's record types.

A record type is a plain class with ``__slots__`` and a hand-written
``__init__``, so that defining it generates no code when its module runs.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A readable repr and value equality over the ``__slots__`` of a subclass.

    Two records are equal when they are of the same class and their fields
    compare equal in order, as a tuple of them would. Records are unhashable.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()
