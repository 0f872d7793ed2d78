"""Immutable record classes.

A subclass names its fields in ``_fields`` and sets all of them in its
``__init__`` in one update of the instance ``__dict__``; after that,
assigning or deleting an attribute raises AttributeError.
``functools.cached_property`` still works, since it writes the instance
``__dict__`` directly.  ``Frozen`` instances compare and hash by
identity; ``Value`` instances by their fields, and only with instances of
the same class.
"""


class Frozen:
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Frozen):
    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
