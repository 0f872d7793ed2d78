"""Named built-in objects and descriptor resolution.

Small library of standard examples addressable by name from the command
line and from metric JSON: identity lattices, the hexagonal lattice, rank-1
and rank-2 group specs, and the stock embeddings.  The resolver accepts a
builtin name, an inline JSON object string, or a file path, in that order.
"""

import json
from fractions import Fraction

from .branching import EmbeddingSpec
from .errors import InputError
from .groups import GroupSpec
from .lattices import Lattice
from .rootdata import build


def _identity_lattice(m: int) -> Lattice:
    basis = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(m))
        for i in range(m)
    )
    return Lattice.from_basis(basis)


def _builtin_lattices() -> dict:
    out = {f"identity{m}": _identity_lattice(m) for m in (2, 3, 4)}
    out["hexagonal"] = Lattice.from_gram(
        ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
    )
    return out


def _builtin_groups() -> dict:
    a1, a2 = build("A1"), build("A2")
    return {
        "su2": GroupSpec(factors=(a1,)),
        "su3": GroupSpec(factors=(a2,)),
        "so3": GroupSpec(factors=(a1,), gamma=(((Fraction(1, 2),),),)),
    }


def _builtin_embeddings() -> dict:
    a1, a2, b2 = build("A1"), build("A2"), build("B2")
    one, zero, two = Fraction(1), Fraction(0), Fraction(2)
    return {
        "a1-in-a2-standard": EmbeddingSpec(
            ambient=a2,
            factors=(a1,),
            restriction=((one, one),),
            name="a1-in-a2-standard",
        ),
        "a1-in-a2-principal": EmbeddingSpec(
            ambient=a2,
            factors=(a1,),
            restriction=((two, two),),
            name="a1-in-a2-principal",
        ),
        "a1xa1-in-b2": EmbeddingSpec(
            ambient=b2,
            factors=(a1, a1),
            restriction=((one, zero), (one, one)),
            name="a1xa1-in-b2",
        ),
        "identity-a2": EmbeddingSpec(
            ambient=a2,
            factors=(a2,),
            restriction=((one, zero), (zero, one)),
            name="identity-a2",
        ),
    }


BUILTIN_LATTICES = _builtin_lattices()
BUILTIN_GROUPS = _builtin_groups()
BUILTIN_EMBEDDINGS = _builtin_embeddings()
_BUILTINS = {
    Lattice: BUILTIN_LATTICES,
    GroupSpec: BUILTIN_GROUPS,
    EmbeddingSpec: BUILTIN_EMBEDDINGS,
}


def resolve(kind, descriptor):
    """The ``kind`` object a descriptor string names: a builtin of that
    kind, else ``kind.from_json_dict`` of an inline JSON object or of the
    JSON object in the file at that path."""
    if not isinstance(descriptor, str):
        raise InputError(f"a descriptor is a string, not {descriptor!r}")
    builtin = _BUILTINS.get(kind, {})
    if descriptor in builtin:
        return builtin[descriptor]
    if descriptor.strip().startswith("{"):
        obj = json.loads(descriptor)
    else:
        with open(descriptor, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InputError("descriptor JSON must be an object")
    return kind.from_json_dict(obj)
