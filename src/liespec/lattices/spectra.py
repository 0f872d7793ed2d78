"""Flat torus spectra.

The Laplace eigenvalues of the torus R^m / L are 4*pi^2*|v|^2 over the
dual lattice of L, so in the "four-pi-squared" unit the truncated spectrum
is a finite exact-rational object: entry q means eigenvalue 4*pi^2*q.  The
cutoff argument is expressed in the same unit.  Only the dual's Gram
matrix, the inverse Gram, is needed, so no dual basis is built.  The table
is counted on the enumeration kernel's integer norms.
"""

from collections import Counter
from fractions import Fraction

from ..linalg import inverse
from ..rational import rat_cutoff
from ..spectrum import SpectrumTable, table_from_counts
from .enumeration import _gram_systole, _integer_problem, _short_vectors_int
from .lattice import Lattice


def torus_spectrum(lat: Lattice, cutoff) -> SpectrumTable:
    """Truncated spectrum of the flat torus with period lattice ``lat``."""
    cutoff = rat_cutoff(cutoff)
    a, bound, scale = _integer_problem(inverse(lat.gram), cutoff)
    counts = Counter({0: 1})
    for _, value in _short_vectors_int(a, bound):
        counts[value] += 2  # each canonical vector stands for +-v
    return table_from_counts(counts, scale, "four-pi-squared", cutoff)


def torus_lambda1(lat: Lattice) -> Fraction:
    """First nonzero eigenvalue in the four-pi-squared unit.

    Equals the squared systole of the dual lattice (a valid Gram's inverse).
    """
    return _gram_systole(inverse(lat.gram))
