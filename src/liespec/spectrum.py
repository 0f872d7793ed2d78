"""Truncated spectra as exact tables.

A SpectrumTable is a finite list of (eigenvalue, multiplicity) pairs, sorted
by eigenvalue, together with the cutoff it was computed at and a
completeness flag.  Eigenvalues are exact rationals relative to a declared
unit:

* ``"raw"``            -- the eigenvalue itself is the stored rational;
* ``"four-pi-squared"``-- the stored rational q means eigenvalue 4*pi^2*q,
  which keeps flat-torus spectra inside exact arithmetic.

Tables compare by exact equality of entries, so two tables computed at the
same cutoff are isospectral-at-cutoff iff their entries are equal.  Every
computed table is built by ``table_from_counts`` from multiplicities keyed
by integer numerators over one common scale.  The Lie spectra are linear
in the reciprocal metric scales, and ``linear_table`` evaluates them all.
"""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError
from .rational import fmt, rat

UNITS = ("raw", "four-pi-squared")


@dataclass(frozen=True)
class SpectrumTable:
    unit: str
    cutoff: Fraction
    entries: tuple  # ((eigenvalue: Fraction, multiplicity: int), ...)
    complete: bool

    def __post_init__(self):
        if self.unit not in UNITS:
            raise DomainError(f"unknown unit {self.unit!r}")
        prev = None
        for eig, mult in self.entries:
            if eig < 0:
                raise DomainError("negative eigenvalue in spectrum table")
            if eig > self.cutoff:
                raise DomainError("entry above cutoff")
            if not (isinstance(mult, int) and mult >= 1):
                raise DomainError("multiplicities must be positive integers")
            if prev is not None and eig <= prev:
                raise DomainError("entries must be strictly increasing")
            prev = eig

    def multiplicity(self, eig) -> int:
        return dict(self.entries).get(Fraction(eig), 0)

    def lambda1(self):
        """Smallest positive entry, or None if the table has none."""
        for e, _ in self.entries:
            if e > 0:
                return e
        return None

    def restrict(self, cutoff) -> "SpectrumTable":
        """The same table truncated at a smaller cutoff."""
        cutoff = rat(cutoff)
        if cutoff > self.cutoff:
            raise DomainError("cannot extend a table beyond its cutoff")
        return SpectrumTable(
            unit=self.unit,
            cutoff=cutoff,
            entries=tuple((e, m) for e, m in self.entries if e <= cutoff),
            complete=self.complete,
        )

    def to_json_dict(self) -> dict:
        return {
            "unit": self.unit,
            "cutoff": fmt(self.cutoff),
            "entries": [[fmt(e), str(m)] for e, m in self.entries],
            "complete": self.complete,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eigenvalue", "multiplicity"])
        for e, m in self.entries:
            writer.writerow([fmt(e), str(m)])
        return buf.getvalue()

    def to_pretty(self) -> str:
        header = f"unit={self.unit} cutoff={fmt(self.cutoff)} complete={self.complete}"
        width = max([len(fmt(e)) for e, _ in self.entries], default=10)
        lines = [header, "-" * len(header)]
        for e, m in self.entries:
            lines.append(f"{fmt(e):>{width}}  x{m}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json_dict(obj: dict) -> "SpectrumTable":
        """Strict inverse of ``to_json_dict``: ``complete`` is a JSON boolean
        and every multiplicity a string of decimal digits."""
        mults = [m for _, m in obj["entries"]]
        if not isinstance(obj["complete"], bool) or not all(
            isinstance(m, str) and m.isascii() and m.isdigit() for m in mults
        ):
            raise DomainError("table JSON is not as to_json_dict writes it")
        return SpectrumTable(
            unit=obj["unit"],
            cutoff=rat(obj["cutoff"]),
            entries=tuple((rat(e), int(m)) for e, m in obj["entries"]),
            complete=obj["complete"],
        )


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def table_from_counts(counts, scale, unit, cutoff) -> SpectrumTable:
    """Complete table with entries (v / scale, counts[v]) sorted by v, where
    every key v is an integer numerator over the one denominator ``scale``."""
    return SpectrumTable(
        unit=unit,
        cutoff=cutoff,
        entries=tuple((Fraction(v, scale), counts[v]) for v in sorted(counts)),
        complete=True,
    )


def linear_table(rows, den, coeffs, cutoff) -> SpectrumTable:
    """Raw table of the eigenvalues (coeffs . row) / den <= cutoff, for
    (row, multiplicity) pairs of integer rows and rational ``coeffs``.  Each
    is counted as an integer numerator over q * den, q the coefficients'
    common denominator, with no Fraction per row."""
    q = lcm(*(c.denominator for c in coeffs))
    weights = tuple(c.numerator * (q // c.denominator) for c in coeffs)
    scale = q * den
    limit = cutoff.numerator * scale // cutoff.denominator
    counts = Counter()
    for row, mult in rows:
        value = sum(map(mul, weights, row))
        if value <= limit:
            counts[value] += mult
    return table_from_counts(counts, scale, "raw", cutoff)


def table_distance(a: SpectrumTable, b: SpectrumTable) -> int:
    """Multiset symmetric-difference count: sum of |mult_a - mult_b| over
    all eigenvalues appearing in either table (absent = 0)."""
    ca, cb = Counter(dict(a.entries)), Counter(dict(b.entries))
    return sum(((ca - cb) + (cb - ca)).values())
