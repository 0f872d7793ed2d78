"""Full-rank rational lattices.

A lattice is presented either by a basis matrix (columns are generators)
or directly by its Gram matrix.  It is validated once, at construction:
the Gram matrix is symmetric and positive definite, decided by one
fraction-free elimination of its integer form q*G (``linalg.eliminate``:
its pivots, the leading minors, all positive), and a basis B is square,
G = B^T B made from B alone or checked if G is given.  The lattice keeps
q*G and that elimination: ``det_gram`` is its last pivot over q^m, LLL
starts from it, and G^{-1} is its adjugate over its determinant
(``_dual_gram``).  All downstream computations -- dual, enumeration,
spectra, reduction, congruence -- operate on the Gram matrix in integer
coordinates, so a Gram-only lattice supports everything except recovering
an explicit embedding in R^m.  This matters because classical Gram
matrices such as [[2,1],[1,2]] admit no rational basis realization.

A lattice keeps one integer form for itself and one for its dual, each
made once on first use by ``_reduced_form``: the LLL-reduced integer Gram
matrix over its least denominator, with the kernel's square completion
from LLL's final Bareiss table.  ``systole`` and ``congruent`` read the
first, ``torus_spectrum`` and ``torus_lambda1`` the second.  The dual's
least nonzero norm, lambda_1, is cached as well: ``torus_spectrum`` fills
it from its own complete enumeration when that reaches it, so a spectrum
followed by its lambda_1 runs the kernel once.

Exact invariants:

* ``det_gram`` equals the squared covolume, always rational;
* dual(dual(L)) has the same Gram matrix as L, and the covolumes of a
  lattice and its dual multiply to 1.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .. import linalg
from ..errors import DomainError, InputError
from ..frozen import Value
from ..rational import (
    _exact_rows, descriptor, exact_int, fmt_matrix, instance, rat_matrix,
)
from .enumeration import _minimum, _squares
from .reduction import _lll_int

class Lattice(Value):
    """``gram`` is m x m, symmetric positive-definite, in exact rationals;
    ``basis``, if given, is m x m with the generators as columns.  Each is
    kept as a tuple of tuples.  ``dim`` is m, read off the matrix."""

    _fields = ("dim", "gram", "basis")

    def __init__(self, gram=None, basis=None):
        # tuples: a caller's list could change after the checks below, and
        # a Value hashes its fields
        gram, basis = _exact_rows(gram), _exact_rows(basis)
        given = gram is not None
        if not given:
            if basis is None:
                raise InputError("a lattice needs a gram matrix or a basis")
            gram = linalg.matmul(linalg.transpose(basis), basis)
        dim = len(gram)
        if dim < 1:
            raise DomainError("lattice dimension must be >= 1")
        if any(len(r) != dim for r in gram):
            raise DomainError("gram matrix shape mismatch")
        if not linalg.is_symmetric(gram):
            raise DomainError("gram matrix must be symmetric")
        a, q = linalg.clear_denominators(gram)
        table = linalg.eliminate(a)
        pivots = table[0]  # q*G's leading minors, up to the first zero one
        if min(pivots) <= 0:
            raise DomainError("gram matrix must be positive definite")
        # _elimination is q*G, q and its Bareiss table, kept for det_gram
        # and both forms; not a field, so ==, hash, repr and JSON ignore it
        self.__dict__.update(
            dim=dim, gram=gram, basis=basis, _elimination=(a, q, table)
        )
        # a square B with B^T B positive definite is nonsingular
        if basis is not None and (
            len(basis) != dim
            or any(len(r) != dim for r in basis)
            or (given and linalg.matmul(linalg.transpose(basis), basis) != gram)
        ):
            raise DomainError("basis must be square with basis^T basis = gram")

    @staticmethod
    def from_basis(rows) -> "Lattice":
        basis = rat_matrix(rows)
        return Lattice(basis=basis)

    @staticmethod
    def from_gram(rows) -> "Lattice":
        gram = rat_matrix(rows)
        return Lattice(gram=gram)

    @cached_property
    def _form(self):
        """(A, q, squares): A is an LLL-reduced Gram matrix of the lattice
        times q, the least integer that clears the Gram matrix's
        denominators; squares completes A, from LLL's final table.  LLL
        starts from the constructor's elimination.  Not a field: ==, hash,
        repr and JSON ignore it."""
        return _reduced_form(*self._elimination)

    @cached_property
    def _dual_gram(self):
        """(D, s), G^{-1} = D / s over their gcd, from q*G's adjugate:
        G^{-1} = q adj(q*G) / det(q*G), and gcd(det, q x_1, q x_2, ...) is
        gcd(det, q gcd(x_1, x_2, ...))."""
        a, q, _ = self._elimination
        adj, det = linalg.adjugate(a)
        g = gcd(det, q * gcd(*chain.from_iterable(adj)))
        return [[q * x // g for x in row] for row in adj], det // g

    @cached_property
    def _dual_form(self):
        """(A, scale, squares) of the dual lattice, from ``_dual_gram``."""
        d, s = self._dual_gram
        return _reduced_form(d, s, linalg.eliminate(d))

    @cached_property
    def _dual_minimum(self) -> Fraction:
        """The least nonzero norm of the dual lattice, lambda_1 of the torus
        in the four-pi-squared unit.  ``torus_spectrum`` stores it first
        whenever its enumeration reaches it.  Not a field."""
        return _minimum(*self._dual_form)

    @property
    def det_gram(self) -> Fraction:
        """det G = det(q*G) / q^dim, the last pivot of its elimination."""
        _, q, (pivots, _, _) = self._elimination
        return Fraction(pivots[-1], q**self.dim)

    def to_json_dict(self) -> dict:
        obj = {"dim": self.dim, "gram": fmt_matrix(self.gram)}
        if self.basis is not None:
            obj["basis"] = fmt_matrix(self.basis)
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "Lattice":
        """Given both ``gram`` and ``basis``, the constructor checks that
        basis^T basis is the Gram matrix; given neither, it refuses."""
        descriptor(obj)
        gram = rat_matrix(obj["gram"]) if "gram" in obj else None
        basis = rat_matrix(obj["basis"]) if "basis" in obj else None
        lat = Lattice(gram=gram, basis=basis)
        if "dim" in obj and exact_int(obj["dim"]) != lat.dim:
            raise DomainError("declared dim does not match matrix size")
        return lat


def _reduced_form(a, scale, table):
    """(A, scale, squares): A is the positive-definite integer form a after
    LLL, which starts from a's Bareiss ``table`` and leaves a as it was,
    and squares the kernel's completion of A from LLL's final table, so the
    form is eliminated once."""
    a, d, lam = _lll_int(a, table)
    return tuple(map(tuple, a)), scale, _squares(d, lam)


def dual(lat: Lattice) -> Lattice:
    """The dual lattice: Gram matrix is the exact inverse Gram, D / s.

    When a basis B is available the dual basis is B G^{-1}, which equals
    (B^T)^{-1} because G = B^T B, and the constructor makes its Gram matrix.
    """
    d, s = instance(lat, Lattice, "a lattice")._dual_gram
    gram = tuple(tuple(Fraction(x, s) for x in row) for row in d)
    if lat.basis is None:
        return Lattice(gram=gram)
    return Lattice(basis=linalg.matmul(lat.basis, gram))


def systole(lat: Lattice) -> Fraction:
    """Smallest squared length of a nonzero lattice vector."""
    return _minimum(*instance(lat, Lattice, "a lattice")._form)

