"""Exact basis reduction on integer Gram matrices.

``_lll_int`` is integral LLL (Cohen, Alg. 2.6.7) with delta = 99/100 on
the integer form A = q*G of a lattice (or of its dual), on the Gram matrix
alone.  Its callers read only the reduced form and its Bareiss table, so
no unimodular transform is kept.  It starts from the Bareiss table (pivots
d, rows lam) that its caller hands it, the lattice's own elimination, and
refuses it unless every pivot, a leading minor of A, is positive.  It keeps
a copy of that table exact: size reduction is a column operation on it,
and a swap updates it in O(m) (Cohen's SWAPI, each division checked).  The
final table is returned with the reduced form, and ``Lattice._form`` and
``Lattice._dual_form`` keep the kernel's completion of it.
"""

from ..errors import CertificationError, LiespecError


def _exact(num, den):
    """num / den, which the Bareiss identities make an integer."""
    value, rest = divmod(num, den)
    if rest:
        raise CertificationError("inexact division in the LLL swap update")
    return value


def _lll_int(a, table):
    """(reduced a, d, lam) for a positive-definite integer Gram a and
    ``table``, what ``linalg.eliminate(a)`` returns for it.

    d_k is the k-th Bareiss pivot, the Gram determinant of the first k+1
    vectors, and lam[j][k] = d_j mu_kj: the table ``linalg.eliminate``
    gives for the returned a.  LLL updates copies of a and of the pivots
    and rows of ``table`` and leaves both as they were.  Size reduction is
    a column operation on a and lam (lam[i][j] is 0 for i > j, and d_j for
    i = j); a swap of b_{k-1} and b_k changes only d_{k-1} and rows k-1, k
    of lam (SWAPI).
    """
    m = len(a)
    d, lam, _ = table
    if min(d) <= 0:
        raise LiespecError("Gram matrix not positive definite in LLL")
    a, d, lam = [list(row) for row in a], list(d), [list(row) for row in lam]
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            r = (2 * lam[j][k] + d[j]) // (2 * d[j])  # floor(mu_kj + 1/2)
            if r:  # b_k -= r * b_j
                a[k] = [x - r * y for x, y in zip(a[k], a[j])]
                for row in a + lam[:j + 1]:
                    row[k] -= r * row[j]
        # Lovasz with delta = 99/100, times 100 d_{k-1} d_{k-2} (d_{-1} = 1)
        before = d[k - 2] if k > 1 else 1
        lk, dk, dk1 = lam[k - 1][k], d[k], d[k - 1]
        if 100 * dk * before >= 99 * dk1 ** 2 - 100 * lk ** 2:
            k += 1
        else:  # exchange b_{k-1} and b_k
            a[k - 1], a[k] = a[k], a[k - 1]
            for row in a + lam[:k - 1]:
                row[k - 1], row[k] = row[k], row[k - 1]
            b = _exact(before * dk + lk * lk, dk1)  # the new d_{k-1}
            lo, hi = lam[k - 1], lam[k]
            for i in range(k + 1, m):
                t = hi[i]
                hi[i] = _exact(dk * lo[i] - lk * t, dk1)
                lo[i] = _exact(b * t + lk * hi[i], dk)
            d[k - 1] = lo[k - 1] = b
            k = max(k - 1, 1)
    return a, d, lam
