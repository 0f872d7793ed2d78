"""Parsing and formatting of exact rationals and descriptor JSON.

Rationals travel as strings "p/q" (or "p" for integers) in every JSON and
CSV interface; Fraction is the in-memory representation everywhere.  What
comes from outside is coerced here, once: a value that does not parse, or
JSON of the wrong shape, raises InputError.  ``sequence`` is the one gate
of every argument and JSON field that holds a sequence.
"""

import sys
from collections.abc import Mapping, Set
from fractions import Fraction

from .errors import DomainError, InputError


def rat(value) -> Fraction:
    """Coerce a string, int, or Fraction to Fraction.

    Floats and bools are rejected: every interface of this package is exact,
    and JSON ``true`` is not the number 1.
    """
    if isinstance(value, (bool, float)):
        raise InputError(
            f"not a rational: {value!r}; use 'p/q' strings"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"not a rational: {value!r}") from exc


def exact_int(value) -> int:
    """Coerce like ``rat`` and require an integer: no float, no truncation."""
    q = rat(value)
    if q.denominator != 1:
        raise DomainError(f"not an integer: {value!r}")
    return q.numerator


def _exact_rows(matrix):
    """``matrix`` as a tuple of tuples, None as None; InputError for an entry
    that is not an int or a Fraction by exact type: none is coerced."""
    if matrix is None:
        return None
    rows = tuple(
        sequence(row, "a matrix row is a sequence")
        for row in sequence(matrix, "a matrix is a sequence of rows")
    )
    for row in rows:
        for x in row:
            if type(x) is not Fraction and type(x) is not int:
                raise InputError(f"not an int or a Fraction: {x!r}")
    return rows


def rat_cutoff(value) -> Fraction:
    """Coerce a spectrum cutoff like ``rat`` and require it nonnegative.

    A ``Fraction`` (by exact type) is already one and passes through; the
    sign is read from the numerator, as the denominator is positive."""
    cutoff = value if type(value) is Fraction else rat(value)
    if cutoff.numerator < 0:
        raise DomainError("cutoff must be nonnegative")
    return cutoff


def written(write, *args) -> str:
    """``write(*args)``, a text of exact numbers; an integer in it with more
    digits than the interpreter writes (its ValueError) is a DomainError
    that names the limit."""
    try:
        return write(*args)
    except ValueError:
        raise DomainError(
            "exact answer too long to write: it has more digits than the "
            f"interpreter's {sys.get_int_max_str_digits()}-digit limit on "
            "int strings"
        ) from None


def fmt(value: Fraction) -> str:
    """Format a Fraction as 'p/q', or 'p' when the denominator is 1, as
    ``written`` allows."""
    return written(str, Fraction(value))


def descriptor(obj) -> dict:
    """``obj`` itself if it is a JSON object (a dict); else InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"descriptor must be an object, not {obj!r}")
    return obj


def required(obj: dict, key: str):
    """``obj[key]`` of a descriptor; a non-object or a missing key is an
    InputError."""
    if key not in descriptor(obj):
        raise InputError(f"descriptor lacks the key {key!r}")
    return obj[key]


def sequence(value, message: str) -> tuple:
    """``tuple(value)`` of any iterable but a string, bytes or a bytearray,
    which tuple() would split into characters or byte values, a mapping,
    which it would read as its keys, or a set, which it would read in hash
    order; an InputError that starts with ``message`` for anything else."""
    if not isinstance(value, (str, bytes, bytearray, Mapping, Set)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InputError(f"{message}, not {value!r}")


def instance(value, cls, what: str):
    """``value`` itself if it is a ``cls``, or one of a tuple of classes;
    else an InputError that says "<what> must be a <cls>, not <value>",
    naming each class: "a <A> or a <B>"."""
    if not isinstance(value, cls):
        kinds = " or ".join(
            ("an " if c.__name__[0] in "AEIOU" else "a ") + c.__name__
            for c in (cls if isinstance(cls, tuple) else (cls,))
        )
        raise InputError(f"{what} must be {kinds}, not {value!r}")
    return value


def rat_matrix(rows) -> tuple:
    """Coerce a sequence of rows of rational-likes to a tuple-of-tuples
    matrix."""
    out = tuple(
        tuple(map(rat, sequence(row, "a matrix row is a sequence")))
        for row in sequence(rows, "a matrix is a sequence of rows")
    )
    if out and any(len(r) != len(out[0]) for r in out):
        raise DomainError("ragged matrix")
    return out


def fmt_matrix(mat) -> list:
    return [[fmt(x) for x in row] for row in mat]
