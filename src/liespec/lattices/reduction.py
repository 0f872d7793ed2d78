"""Exact basis reduction on Gram matrices.

Two layers:

* ``lll_gram`` -- integral LLL on the shared Bareiss table (Cohen,
  Alg. 2.6.7) with delta = 99/100, working on the Gram matrix alone,
  cleared of denominators, and returning the unimodular transform.  Used
  for every dimension as a preconditioner and as the full answer for
  dim > 4; its integer core ``_lll_int`` also serves ``systole`` and
  reduces each lattice's cached integer dual form.
* ``_minima_transform`` -- for dim <= 4 the vectors achieving the
  successive minima generate the lattice, so after LLL we enumerate all
  vectors up to the largest reduced diagonal entry and greedily pick a
  shortest generating set.  The first vector then achieves the systole
  exactly.
"""

from fractions import Fraction

from .. import linalg
from ..errors import LiespecError
from .enumeration import enumerate_gram
from .lattice import Lattice


def _bareiss_table(a):
    """Pivots d and pivot rows lam of the integer Gram matrix a."""
    d, lam, swaps, _ = linalg.eliminate(a)
    if swaps or min(d) <= 0:
        raise LiespecError("Gram matrix not positive definite in LLL")
    return d, lam


def lll_gram(g):
    """LLL-reduce a Gram matrix; returns (reduced_gram, unimodular U).

    The reduced Gram equals U^T g U exactly; ``_lll_int`` runs on q*g.
    """
    a, q = linalg.clear_denominators(g)
    a, u = _lll_int(a)
    return (
        tuple(tuple(Fraction(x, q) for x in row) for row in a),
        tuple(tuple(Fraction(x) for x in row) for row in u),
    )


def _lll_int(a):
    """(a reduced in place, U) for a positive-definite integer Gram a.

    d_k is the k-th Bareiss pivot, the Gram determinant of the first k+1
    vectors, and lam[j][k] = d_j mu_kj.  Size reduction is a column
    operation on a, U and lam (lam[i][j] is 0 for i > j, and d_j for
    i = j); only a swap recomputes the table.
    """
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    d, lam = _bareiss_table(a)
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
        if 100 * d[k] * before >= 99 * d[k - 1] ** 2 - 100 * lam[k - 1][k] ** 2:
            k += 1
        else:  # exchange b_{k-1} and b_k
            a[k - 1], a[k] = a[k], a[k - 1]
            for row in a + u:
                row[k - 1], row[k] = row[k], row[k - 1]
            d, lam = _bareiss_table(a)
            k = max(k - 1, 1)
    return a, u


def _minima_transform(g):
    """Greedy shortest generating set for dim <= 4 (post-LLL Gram input)."""
    m = len(g)
    bound = max(g[i][i] for i in range(m))
    half = sorted(enumerate_gram(g, bound), key=lambda t: (t[1], t[0]))
    chosen = []
    for coords, _ in half:
        trial = chosen + [coords]
        # independent iff their integer Gram matrix, which is positive
        # semidefinite, is positive definite: iff its determinant is > 0
        gram = [[sum(x * y for x, y in zip(s, t)) for t in trial] for s in trial]
        if linalg.det(gram) > 0:
            chosen = trial
            if len(chosen) == m:
                break
    v = tuple(tuple(Fraction(chosen[j][i]) for j in range(m)) for i in range(m))
    if abs(linalg.det(v)) != 1:
        # cannot happen for m <= 4: minima vectors generate the lattice
        raise LiespecError("successive-minima vectors failed to generate")
    return linalg.matmul(linalg.transpose(v), linalg.matmul(g, v)), v


def reduce_with_transform(lat: Lattice):
    """Reduced lattice plus the unimodular transform U (new = old * U)."""
    g, u = lll_gram(lat.gram)
    if lat.dim <= 4:
        g, v = _minima_transform(g)
        u = linalg.matmul(u, v)
    basis = linalg.matmul(lat.basis, u) if lat.basis is not None else None
    reduced = Lattice(dim=lat.dim, gram=g, basis=basis)
    return reduced, u
