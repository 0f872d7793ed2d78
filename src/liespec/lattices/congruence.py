"""Exact congruence testing for rational lattices (dim <= 8).

Two lattices are congruent iff their Gram matrices are related by a
unimodular change of basis.  Each side is read from its one cached integer
form (``Lattice._form``): A = q*G LLL-reduced, with the kernel's square
completion.  The least denominator q and det(q*G), the last Bareiss pivot
of that completion, are invariants of a unimodular change of basis, so a
pair that differs in either is not congruent.  Otherwise the first
form's basis vectors are mapped onto vectors of the second form with
exactly matching pairwise inner products.  An isometry maps each of them
to a vector of the same norm, at most the first form's largest diagonal
entry, so enumerating the second form up to that bound misses no image,
whatever the basis.  A complete assignment V satisfies V^T A2 V = A1, and
equal determinants force V unimodular, so backtracking over short-vector
images decides the question exactly, in integers, in every dimension.
"""

from ..errors import DomainError, UnsupportedDimensionError
from ..rational import instance
from .enumeration import _norm_counts
from .lattice import Lattice

MAX_DIM = 8


def congruent(a: Lattice, b: Lattice) -> bool:
    """Decide whether two lattices are isometric, exactly."""
    instance(a, Lattice, "a lattice")
    if a.dim != instance(b, Lattice, "a lattice").dim:
        raise DomainError("congruence needs equal dimensions")
    m = a.dim
    if m > MAX_DIM:
        raise UnsupportedDimensionError(
            f"congruence implemented for dim <= {MAX_DIM}"
        )
    g1, q1, squares1 = a._form
    g2, q2, squares2 = b._form
    if q1 != q2 or squares1[0][-1] != squares2[0][-1]:
        return False
    bound = max(g1[i][i] for i in range(m))

    found = []
    if _norm_counts(squares1, bound) != _norm_counts(squares2, bound, found):
        return False
    buckets = {}
    for coords, value in found:
        for vec in (coords, tuple(-c for c in coords)):
            buckets.setdefault(value, []).append(vec)

    def inner(u, v):
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = g2[i]
                total += ui * sum(row[j] * v[j] for j in range(m) if v[j])
        return total

    images = [None] * m

    def assign(i):
        if i == m:
            return True
        for w in buckets.get(g1[i][i], ()):
            ok = True
            for j in range(i):
                if inner(images[j], w) != g1[i][j]:
                    ok = False
                    break
            if ok:
                images[i] = w
                if assign(i + 1):
                    return True
        images[i] = None
        return False

    return assign(0)
