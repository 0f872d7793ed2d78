"""Named built-in objects and descriptor resolution.

Small library of standard examples addressable by name from the command
line and from metric JSON: identity lattices, the hexagonal lattice, rank-1
and rank-2 group specs, and the stock embeddings.  Each builtin is written
as the JSON object its kind reads, and made from it on the first lookup of
its name; every later lookup returns that same object (so an embedding
keeps its memoized branchings).  The resolver accepts a builtin name, an
inline JSON object string, or a file path, in that order.
"""

import json
import os
from collections.abc import Mapping

from .branching import EmbeddingSpec
from .errors import InputError
from .groups import GroupSpec
from .lattices import Lattice


class _Builtins(Mapping):
    """Builtin name -> ``kind.from_json_dict`` of its JSON, made once."""

    def __init__(self, kind, objects: dict):
        self._kind, self._objects, self._made = kind, objects, {}

    def __getitem__(self, name):
        try:
            return self._made[name]
        except KeyError:
            obj = self._kind.from_json_dict(self._objects[name])
            # should two threads race, both get the first object stored
            return self._made.setdefault(name, obj)

    def __contains__(self, name):
        return name in self._objects

    def __iter__(self):
        return iter(self._objects)

    def __len__(self):
        return len(self._objects)


BUILTIN_LATTICES = _Builtins(Lattice, {
    "identity2": {"basis": [[1, 0], [0, 1]]},
    "identity3": {"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "identity4": {
        "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    },
    "hexagonal": {"gram": [[2, 1], [1, 2]]},
})
BUILTIN_GROUPS = _Builtins(GroupSpec, {
    "su2": {"factors": ["A1"]},
    "su3": {"factors": ["A2"]},
    "so3": {"factors": ["A1"], "gamma": [[["1/2"]]]},
})
BUILTIN_EMBEDDINGS = _Builtins(EmbeddingSpec, {
    name: {
        "ambient": ambient,
        "factors": factors,
        "restriction": restriction,
        "name": name,
    }
    for name, ambient, factors, restriction in (
        ("a1-in-a2-standard", "A2", ["A1"], [[1, 1]]),
        ("a1-in-a2-principal", "A2", ["A1"], [[2, 2]]),
        ("a1xa1-in-b2", "B2", ["A1", "A1"], [[1, 0], [1, 1]]),
        ("identity-a2", "A2", ["A2"], [[1, 0], [0, 1]]),
    )
})
_BUILTINS = {
    Lattice: BUILTIN_LATTICES,
    GroupSpec: BUILTIN_GROUPS,
    EmbeddingSpec: BUILTIN_EMBEDDINGS,
}


def resolve(kind, descriptor):
    """The ``kind`` object a descriptor string names: a builtin of that
    kind, else ``kind.from_json_dict`` of the descriptor read as JSON, else,
    when it does not parse, of the JSON in the file at that path.  So no
    inline JSON value is opened as a file: one that is no object is the
    reader's InputError, and text that starts with "{" or "[" and names no
    file is reported as the JSON it fails to be."""
    if not isinstance(descriptor, str):
        raise InputError(f"a descriptor is a string, not {descriptor!r}")
    builtin = _BUILTINS.get(kind, {})
    if descriptor in builtin:
        return builtin[descriptor]
    try:
        try:
            obj = json.loads(descriptor)
        except json.JSONDecodeError:
            looks_like_json = descriptor.strip().startswith(("{", "["))
            if looks_like_json and not os.path.isfile(descriptor):
                raise
            with open(descriptor, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # a file not UTF-8, an int over the digit limit
        raise InputError(f"descriptor JSON does not parse: {exc}") from exc
    return kind.from_json_dict(obj)
