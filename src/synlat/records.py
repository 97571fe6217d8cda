"""Immutable records: plain classes with the repr, == and hash of a frozen dataclass.

The dataclasses module writes those methods as source and compiles each
class's with exec as the class is created, so the package's records used to
take most of its import time; here they are written once.  A Record
subclass names its constructor's parameters in _fields, in order, and
Record.__init__ binds its arguments to them, positionally or by keyword; a
field left out takes its class attribute, where the class sets one, as its
default.  A record then prints as Name(field=value, ...), equals another
record of its very class whose compared fields are equal, hashes as the
tuple of those fields, pickles through its constructor, and refuses
assignment and deletion with AttributeError.

A class writes its own __init__, setting each field with set_field, only if
it validates its arguments (automata.Dfa, cli.Budgets, oracle.OracleConfig),
derives a field from them (the regex nodes' key, _hash and nullable,
Dfa._letter_index), or is built in bulk (atoms.AtomSet, and
syntactic._Element, one an algebra element): the generic loop takes about
0.4 µs more a record, 1.4 µs against 0.9 for seven fields (timeit, Python
3.11, 2-vCPU VM).  Counted over one pass of each benchmark workload, a
batch request builds about 7.3 AtomSets, 6 regex nodes, 2 Dfas and 0.7
algebra elements, against 2.9 records on the generic path.  A class hashed
in bulk (the regex nodes, atoms.AtomSet) writes its own __eq__ and
__hash__.
"""

from __future__ import annotations

set_field = object.__setattr__   # sets a field in __init__, past Record.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()              # the constructor's parameters, in order
    _compare: tuple[str, ...] | None = None    # the fields == and hash read; None: all of _fields
    _hidden: tuple[str, ...] = ()              # the fields repr leaves out

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(self.__class__, args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)

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


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """One value a field of cls, in _fields order, from positional and keyword
    arguments; a field given neither takes its class attribute, unless that
    is the descriptor of its slot."""
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    for key in kwargs:
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if fields.index(key) < len(args):
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    values = list(args)
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs[field])
        elif hasattr(cls, field) and not hasattr(getattr(cls, field), "__set__"):
            values.append(getattr(cls, field))
        else:
            raise TypeError(f"{name}() missing argument {field!r}")
    return values
