"""Immutable value records, written as plain classes.

A record class names its fields, in order, in the class attribute
`_fields`.  The base `__init__` stores one value per field, given by
position, with `_set` (object.__setattr__).  A class whose constructor
also runs checks or fills a default has its own `__init__`, with parameters
named and ordered as `_fields`.  The base class supplies the rest: value
equality and hashing over the fields, the `Name(field=value, ...)` repr, a
`replace` that re-runs `__init__` (and so every check), and immutability,
since setting or deleting an attribute raises AttributeError.

Nothing is generated: the standard library's record decorator writes the
source of each method and compiles it when a module is imported, and its
module imports `inspect`, `ast` and `dis`.  Together that was about a third
of the time to import the command line, which every `entwine` process pays.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of the immutable records; see the module docstring."""

    def __init_subclass__(cls):
        # one C-level getter per class reads the fields as a tuple
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes "
                            f"{len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, built by `__init__`."""
        values = [changes.pop(name, getattr(self, name))
                  for name in self._fields]
        if changes:
            raise TypeError(f"{self.__class__.__qualname__} has no field "
                            f"{next(iter(changes))!r}")
        return self.__class__(*values)
