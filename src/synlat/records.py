"""Immutable records: plain classes with the repr, == and hash of a frozen dataclass.

The dataclasses module writes those methods as source and compiles each
class's with exec as the class is created, so the package's records used to
take most of its import time; here they are written once.  A Record
subclass names its constructor's parameters in _fields, in order, and its
own __init__ sets each with set_field, one call a field as the generated
__init__ did: a generic loop over _fields made every record three times
slower to build.  It then prints as Name(field=value, ...), equals another
record of its very class whose compared fields are equal, hashes as the
tuple of those fields, pickles through its constructor, and refuses
assignment and deletion with AttributeError.  A class hashed in bulk (the
regex nodes, atoms.AtomSet) writes its own __eq__ and __hash__.
"""

from __future__ import annotations

set_field = object.__setattr__   # sets a field in __init__, past Record.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()              # the constructor's parameters, in order
    _compare: tuple[str, ...] | None = None    # the fields == and hash read; None: all of _fields
    _hidden: tuple[str, ...] = ()              # the fields repr leaves out

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare or self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
