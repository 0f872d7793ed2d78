"""Flat torus spectra.

The Laplace eigenvalues of the torus R^m / L are 4*pi^2*|v|^2 over the
dual lattice of L, so in the "four-pi-squared" unit the truncated spectrum
is a finite exact-rational object: entry q means eigenvalue 4*pi^2*q.  The
cutoff argument is expressed in the same unit.  Both functions read the
lattice's one cached integer dual form, LLL-reduced (a unimodular change
of basis, so the norms are those of the dual), with the kernel's square
completion from LLL's final Bareiss table, and no dual basis is built.
The table is made from the kernel's counts of integer norms, sorted once.
Those counts are complete up to the cutoff, so when they hold a nonzero
norm the least one is lambda_1: the spectrum stores it in the lattice's
cached ``_dual_minimum``, and ``torus_lambda1`` after it runs no kernel.
"""

from fractions import Fraction

from ..rational import instance, rat_cutoff
from ..spectrum import SpectrumTable, _reduced
from .enumeration import _norm_counts
from .lattice import Lattice


def torus_spectrum(lat: Lattice, cutoff) -> SpectrumTable:
    """Truncated spectrum of the flat torus with period lattice ``lat``."""
    instance(lat, Lattice, "a lattice")
    cutoff = rat_cutoff(cutoff)
    _, scale, squares = lat._dual_form
    bound = cutoff.numerator * scale // cutoff.denominator
    found = _norm_counts(squares, bound)
    values = sorted(found)  # all positive: 0 is the zero vector's alone
    if values:
        lat.__dict__.setdefault("_dual_minimum", Fraction(values[0], scale))
    return _reduced(
        "four-pi-squared",
        cutoff,
        scale,
        (0, *values),
        # a canonical x stands for x and -x
        (1, *[2 * found[v] for v in values]),
    )


def torus_lambda1(lat: Lattice) -> Fraction:
    """First nonzero eigenvalue in the four-pi-squared unit: the squared
    systole of the dual lattice."""
    return instance(lat, Lattice, "a lattice")._dual_minimum
