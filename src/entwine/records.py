"""Immutable value records, written as plain classes.

A record class names its fields, in constructor order, in the class
attribute `_fields`, and its hand-written `__init__` runs its checks and
then stores each field with `_set` (object.__setattr__).  The base class
supplies the rest: value equality and hashing over the fields, the
`Name(field=value, ...)` repr, a `replace` that re-runs `__init__` (and so
every check), and immutability, since setting or deleting an attribute
raises AttributeError.

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
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)
