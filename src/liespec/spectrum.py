"""Truncated spectra as exact tables.

A SpectrumTable is a finite list of (eigenvalue, multiplicity) pairs, sorted
by eigenvalue, together with the cutoff it was computed at.  Every builder
certifies its enumeration budget, so every table is complete, and
``complete`` is a class constant, True.  Eigenvalues are exact rationals
relative to a declared unit:

* ``"raw"``            -- the eigenvalue itself is the stored rational;
* ``"four-pi-squared"``-- the stored rational q means eigenvalue 4*pi^2*q,
  which keeps flat-torus spectra inside exact arithmetic.

A table stores its eigenvalues as integers: strictly increasing numerators
``values`` over one positive ``scale``, reduced so that
gcd(scale, *values) == 1, beside their ``mults``.  That form is canonical,
so two tables computed at the same cutoff are isospectral-at-cutoff iff
they are equal, and equality, lookup and ``table_distance`` work on
integers.  Fractions appear only at the edges: ``entries``, the
(Fraction, multiplicity) pairs, is a view built on first use, and the
JSON, CSV and pretty forms format each eigenvalue from its numerator and
the scale.  The validating constructor is the one way in: ``_reduced``
divides integer numerators over one scale by their common factor, and
``table_from_counts`` sorts multiplicities keyed by such numerators.  The
Lie spectra are linear in the reciprocal metric scales, and one evaluator,
``_common_scale`` and ``_counts``, counts them over one scale for
``linear_table``, the bi-invariant fold, the isolation scan and the term
catalogue.  One count, ``_distance``, serves ``table_distance`` and the
isolation scan: rows of numerators, a numerator possibly repeated, with
their multiplicities, against a {numerator: multiplicity} count over the
same scale.  It is sum(mults) + sum(counts) - 2 sum_v min(a_v, b_v), and
only the rows whose numerator the count holds, found at C level, are
merged in Python.
"""

import io
import json
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import add, lt

from .errors import DomainError
from .frozen import Value
from .rational import fmt, rat

UNITS = ("raw", "four-pi-squared")
_INT = frozenset((int,))


class SpectrumTable(Value):
    """Eigenvalue i is values[i] / scale, with multiplicity mults[i]: the
    values strictly increasing integers, the mults positive integers."""

    _fields = ("unit", "cutoff", "scale", "values", "mults")

    # every builder certifies its enumeration budget, so every table is
    # complete up to its cutoff
    complete = True

    def __init__(self, unit, cutoff, scale, values, mults):
        # the five fields in one write, as ``frozen`` allows
        self.__dict__.update(
            unit=unit, cutoff=cutoff, scale=scale, values=values, mults=mults
        )
        if unit not in UNITS:
            raise DomainError(f"unknown unit {unit!r}")
        # exact types only: a bool is an int but names no number, a list
        # can change after these checks, and ``to_json`` escapes nothing
        if type(cutoff) is not Fraction and type(cutoff) is not int:
            raise DomainError("cutoff must be an int or a Fraction")
        # an int or a Fraction keeps its sign in its numerator
        num, den = cutoff.numerator, cutoff.denominator
        if num < 0:
            raise DomainError("cutoff must be nonnegative")
        if type(values) is not tuple or type(mults) is not tuple:
            raise DomainError("values and mults must be tuples")
        if {type(scale), *map(type, values)} != _INT:
            raise DomainError("scale and values must be integers")
        if scale < 1 or gcd(scale, *values) != 1:
            raise DomainError("values must be reduced over a positive scale")
        if len(mults) != len(values):
            raise DomainError("one multiplicity per eigenvalue")
        if values:
            if values[0] < 0:
                raise DomainError("negative eigenvalue in spectrum table")
            if values[-1] * den > num * scale:
                raise DomainError("entry above cutoff")
            if not all(map(lt, values, values[1:])):
                raise DomainError("entries must be strictly increasing")
            if {*map(type, mults)} != _INT or min(mults) < 1:
                raise DomainError("multiplicities must be positive integers")

    @cached_property
    def entries(self) -> tuple:
        """((eigenvalue: Fraction, multiplicity: int), ...), made on first
        use, for readers; the table's own operations use the integers."""
        scale = self.scale
        return tuple(
            (Fraction(v, scale), m) for v, m in zip(self.values, self.mults)
        )

    def multiplicity(self, eig) -> int:
        eig = rat(eig)
        num, rest = divmod(eig.numerator * self.scale, eig.denominator)
        i = bisect_left(self.values, num)
        if rest or i == len(self.values) or self.values[i] != num:
            return 0
        return self.mults[i]

    def lambda1(self):
        """Smallest positive entry, or None if the table has none."""
        for v in self.values[:2]:  # only 0 can come before it
            if v > 0:
                return Fraction(v, self.scale)
        return None

    def _eigenvalue_strings(self) -> list:
        """Each eigenvalue as ``rational.fmt`` writes it, from its numerator
        and the scale."""
        scale = self.scale
        out = []
        for v in self.values:
            g = gcd(v, scale)
            out.append(str(v // g) if g == scale else f"{v // g}/{scale // g}")
        return out

    def to_json(self) -> str:
        """``canonical_json`` of the table's JSON object, written directly:
        the keys in sorted order, and nothing to escape, as the constructor
        admits only the ``UNITS`` and exact numbers."""
        entries = ",".join([
            f'["{e}","{m}"]'
            for e, m in zip(self._eigenvalue_strings(), self.mults)
        ])
        return (
            f'{{"complete":true,"cutoff":"{fmt(self.cutoff)}",'
            f'"entries":[{entries}],"unit":"{self.unit}"}}\n'
        )

    def to_csv(self) -> str:
        return _csv(
            ["eigenvalue", "multiplicity"],
            zip(self._eigenvalue_strings(), self.mults),
        )

    def to_pretty(self) -> str:
        header = (
            f"unit={self.unit} cutoff={fmt(self.cutoff)}"
            f" complete={self.complete}"
        )
        eigs = self._eigenvalue_strings()
        width = max(map(len, eigs), default=10)
        lines = [header, "-" * len(header)]
        for e, m in zip(eigs, self.mults):
            lines.append(f"{e:>{width}}  x{m}")
        return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _csv(header, rows) -> str:
    """CSV text of the ``header`` row and then ``rows``, for tables and
    reports alike; ``csv`` is imported on this path alone."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _reduced(unit, cutoff, scale, values, mults) -> SpectrumTable:
    """Table of the integers ``values`` over ``scale``, with their common
    factor divided out."""
    g = gcd(scale, *values)
    if g > 1:
        scale //= g
        values = [v // g for v in values]
    return SpectrumTable(unit, cutoff, scale, tuple(values), tuple(mults))


def table_from_counts(counts, scale, unit, cutoff) -> SpectrumTable:
    """Complete table with entries (v / scale, counts[v]) sorted by v, where
    every key v is an integer numerator over the one positive denominator
    ``scale``."""
    values = sorted(counts)
    return _reduced(
        unit, cutoff, scale, values, map(counts.__getitem__, values)
    )


def linear_table(rows, den, scales, cutoff) -> SpectrumTable:
    """Raw table of the eigenvalues sum_k row_k / s_k / den <= cutoff, for
    (row, multiplicity) pairs of integer rows and the positive rational
    ``scales`` s, counted over the common scale of ``_common_scale``, so
    no Fraction is made per row."""
    weights, scale, limit = _common_scale(scales, den, cutoff)
    products = [[g[k] * w for g, _ in rows] for k, w in enumerate(weights)]
    counts = _counts(products, [mult for _, mult in rows], limit)
    return table_from_counts(counts, scale, "raw", cutoff)


def _common_scale(scales, den, cutoff) -> tuple:
    """(weights w, scale, limit) for rows over ``den`` at the positive
    rational ``scales`` s: sum_k row_k / s_k / den is sum_k row_k * w_k over
    scale = q * den, q the lcm of the scales' numerators and w_k = q / s_k,
    and it is at most ``cutoff`` iff that integer is at most limit."""
    q = lcm(*(s.numerator for s in scales))
    scale = q * den
    weights = tuple(q // s.numerator * s.denominator for s in scales)
    return weights, scale, cutoff.numerator * scale // cutoff.denominator


def _counts(products, mults, limit) -> dict:
    """{numerator: multiplicity} up to ``limit`` of the rows whose
    numerators sum the per-axis integer ``products``, counted ``mults``."""
    values = products[0]
    for column in products[1:]:
        values = map(add, values, column)
    counts = {}
    for v, mult in zip(values, mults):
        if v <= limit:
            counts[v] = counts.get(v, 0) + mult
    return counts


def table_distance(a: SpectrumTable, b: SpectrumTable) -> int:
    """Multiset symmetric-difference count: sum of |mult_a - mult_b| over
    all eigenvalues appearing in either table (absent = 0).  The tables
    must share their unit and cutoff; each is counted by numerator over
    the one scale a.scale * b.scale."""
    if a.unit != b.unit or a.cutoff != b.cutoff:
        raise DomainError("only tables of one unit and cutoff compare")
    return _distance(
        [v * b.scale for v in a.values],
        a.mults,
        dict(zip([w * a.scale for w in b.values], b.mults)),
    )


def _distance(values, mults, counts: dict) -> int:
    """``table_distance`` of the rows of numerators ``values`` (a numerator
    may repeat), counted ``mults``, against the {numerator: multiplicity}
    ``counts`` over the same scale.

    sum_v |a_v - b_v| is sum(a) + sum(b) - 2 sum_v min(a_v, b_v), and only
    a numerator that ``counts`` holds has a nonzero min, so only the rows
    of those numerators, picked out at C level, are merged in Python.
    """
    held = list(map(counts.__contains__, values))
    shared = {}
    for v, mult in zip(compress(values, held), compress(mults, held)):
        shared[v] = shared.get(v, 0) + mult
    return sum(mults) + sum(counts.values()) - 2 * sum(
        [min(mult, counts[v]) for v, mult in shared.items()]
    )
