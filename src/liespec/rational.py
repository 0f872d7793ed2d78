"""Parsing and formatting of exact rationals.

Rationals travel as strings "p/q" (or "p" for integers) in every JSON and
CSV interface; Fraction is the in-memory representation everywhere.
"""

from fractions import Fraction

from .errors import DomainError


def rat(value) -> Fraction:
    """Coerce a string, int, or Fraction to Fraction.

    Floats are rejected: every interface of this package is exact.
    """
    if isinstance(value, float):
        raise DomainError("floats are not accepted; use 'p/q' strings")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"not a rational: {value!r}") from exc


def exact_int(value) -> int:
    """Coerce like ``rat`` and require an integer: no float, no truncation."""
    q = rat(value)
    if q.denominator != 1:
        raise DomainError(f"not an integer: {value!r}")
    return q.numerator


def fmt(value: Fraction) -> str:
    """Format a Fraction as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(value))


def rat_matrix(rows) -> tuple:
    """Coerce a nested list of rational-likes to a tuple-of-tuples matrix."""
    out = tuple(tuple(rat(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DomainError("ragged matrix")
    return out


def fmt_matrix(mat) -> list:
    return [[fmt(x) for x in row] for row in mat]
