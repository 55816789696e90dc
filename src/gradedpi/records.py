"""Immutable value records.

A frozen class of the package derives from Record, lists its fields as
__slots__ and sets them in its own __init__ through object.__setattr__.
Record supplies what @dataclass(frozen=True) would generate: equality and a
hash over the field tuple, equal only to the same class; a repr of the form
Name(field=value, ...); assignment and deletion raising AttributeError; and
a __reduce__ that rebuilds through the constructor, which copy and pickle
need once __setattr__ raises.  The package uses no dataclasses, so no import
of it loads dataclasses, inspect, ast, dis or tokenize (tests/test_cli.py
guards this).
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)
