"""Exact basis reduction on integer Gram matrices.

Two steps, both on the integer form A = q*G of a lattice (or of its dual):

* ``_lll_int`` -- integral LLL (Cohen, Alg. 2.6.7) with delta = 99/100 on
  the Gram matrix alone, returning the unimodular transform.  It starts
  from the Bareiss table (pivots d, rows lam) that its caller hands it,
  the lattice's own elimination, and keeps a copy of that table exact:
  size reduction is a column operation on it, and a swap updates it in
  O(m) (Cohen's SWAPI, each division checked).  The final table is
  returned with the reduced form, and ``Lattice._form`` and
  ``Lattice._dual_form`` keep the kernel's completion of it.
* ``_minima_transform`` -- for dim <= 4 the vectors achieving the
  successive minima generate the lattice, so on a reduced form we
  enumerate all vectors up to its largest diagonal entry and greedily
  pick a shortest generating set (used by ``congruent``).
"""

from .. import linalg
from ..errors import CertificationError, LiespecError
from .enumeration import _norm_counts


def _exact(num, den):
    """num / den, which the Bareiss identities make an integer."""
    value, rest = divmod(num, den)
    if rest:
        raise CertificationError("inexact division in the LLL swap update")
    return value


def _lll_int(a, table):
    """(a reduced in place, U, d, lam) for a positive-definite integer Gram a
    and ``table``, what ``linalg.eliminate(a)`` returns for it.

    d_k is the k-th Bareiss pivot, the Gram determinant of the first k+1
    vectors, and lam[j][k] = d_j mu_kj: the table ``linalg.eliminate``
    gives for the returned a.  LLL updates copies of the pivots and rows of
    ``table`` and leaves it as it was.  Size reduction is a column
    operation on a, U and lam (lam[i][j] is 0 for i > j, and d_j for
    i = j); a swap of b_{k-1} and b_k changes only d_{k-1} and rows k-1, k
    of lam (SWAPI).
    """
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    d, lam, swaps, _ = table
    if swaps or min(d) <= 0:
        raise LiespecError("Gram matrix not positive definite in LLL")
    d, lam = list(d), [list(row) for row in lam]
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            r = (2 * lam[j][k] + d[j]) // (2 * d[j])  # floor(mu_kj + 1/2)
            if r:  # b_k -= r * b_j
                a[k] = [x - r * y for x, y in zip(a[k], a[j])]
                for row in a + u + lam:
                    row[k] -= r * row[j]
        # Lovasz with delta = 99/100, times 100 d_{k-1} d_{k-2} (d_{-1} = 1)
        before = d[k - 2] if k > 1 else 1
        lk, dk, dk1 = lam[k - 1][k], d[k], d[k - 1]
        if 100 * dk * before >= 99 * dk1 ** 2 - 100 * lk ** 2:
            k += 1
        else:  # exchange b_{k-1} and b_k
            a[k - 1], a[k] = a[k], a[k - 1]
            for row in a + u + lam[:k - 1]:
                row[k - 1], row[k] = row[k], row[k - 1]
            b = _exact(before * dk + lk * lk, dk1)  # the new d_{k-1}
            lo, hi = lam[k - 1], lam[k]
            for i in range(k + 1, m):
                t = hi[i]
                hi[i] = _exact(dk * lo[i] - lk * t, dk1)
                lo[i] = _exact(b * t + lk * hi[i], dk)
            d[k - 1] = lo[k - 1] = b
            k = max(k - 1, 1)
    return a, u, d, lam


def _minima_transform(a, squares):
    """(V^T a V, V) for a shortest generating set V of the LLL-reduced
    integer form a of dim <= 4, which ``squares`` completes."""
    m = len(a)
    found = []
    _norm_counts(squares, max(a[i][i] for i in range(m)), found)
    chosen = []
    for coords, _ in sorted(found, key=lambda t: (t[1], t[0])):
        trial = chosen + [coords]
        # independent iff their integer Gram matrix, which is positive
        # semidefinite, is positive definite: iff its determinant is > 0
        gram = [[sum(x * y for x, y in zip(s, t)) for t in trial] for s in trial]
        if linalg.det(gram) > 0:
            chosen = trial
            if len(chosen) == m:
                break
    v = tuple(tuple(chosen[j][i] for j in range(m)) for i in range(m))
    if abs(linalg.det(v)) != 1:
        # cannot happen for m <= 4: minima vectors generate the lattice
        raise LiespecError("successive-minima vectors failed to generate")
    return linalg.matmul(linalg.transpose(v), linalg.matmul(a, v)), v
