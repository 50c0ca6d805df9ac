"""The base of the package's frozen records.

A record is a plain class with an explicit ``__init__``: its constructor's
parameters are its fields, in order, with their defaults. Records compare
equal when they are of one class with equal fields, hash by their fields
(so a record with an unhashable field does not hash), print as
``Name(field=value, ...)``, refuse assignment and deletion, and copy and
pickle by calling the constructor on their fields. Nothing is generated at
import, so defining a record costs no more than defining a class.
"""

from __future__ import annotations

from typing import Any, Callable


def _frozen(self: Record, name: str, *value: Any) -> None:
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Record:
    """A frozen record. A subclass lists its fields, in constructor order, in
    ``__slots__``; its ``__init__`` stores them with the bound slot setters
    ``_setters``, in the same order. A record that needs an instance
    ``__dict__`` (for ``functools.cached_property``) has no ``__slots__``,
    names its fields in ``_fields`` and stores them in its ``__dict__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple[Callable[[Any, Any], None], ...] = ()

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__")
        if slots:
            cls._fields = tuple(slots)
            cls._setters = tuple(getattr(cls, name).__set__ for name in slots)

    __setattr__ = __delattr__ = _frozen

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
