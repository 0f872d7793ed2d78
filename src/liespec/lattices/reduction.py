"""Exact basis reduction on Gram matrices.

Two layers:

* ``lll_gram`` -- rational LLL with delta = 99/100, working on the Gram
  matrix alone (Cohen, Alg. 2.6.3) by in-place row and column operations,
  and returning the unimodular transform.  Used for every dimension as a
  preconditioner and as the full answer for dim > 4.
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

DELTA = Fraction(99, 100)


def _gso(g):
    """Gram-Schmidt data (mu, b_star_sq) computed from a Gram matrix."""
    m = len(g)
    mu = [[Fraction(0)] * m for _ in range(m)]
    b2 = [Fraction(0)] * m
    for i in range(m):
        for k in range(i):
            num = g[i][k] - sum(mu[i][j] * mu[k][j] * b2[j] for j in range(k))
            mu[i][k] = num / b2[k]
        b2[i] = g[i][i] - sum(mu[i][j] ** 2 * b2[j] for j in range(i))
        if b2[i] <= 0:
            raise LiespecError("Gram matrix not positive definite in LLL")
    return mu, b2


def lll_gram(g, delta: Fraction = DELTA):
    """LLL-reduce a Gram matrix; returns (reduced_gram, unimodular U).

    The reduced Gram equals U^T g U exactly.  Size reduction updates g, U
    and mu in place (b2 is unchanged); only a swap recomputes _gso.
    """
    m = len(g)
    g = [[Fraction(x) for x in row] for row in g]
    u = [list(row) for row in linalg.identity(m)]
    mu, b2 = _gso(g)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + Fraction(1, 2)).__floor__()
            if q != 0:  # b_k -= q * b_j: row, column k of g; column k of U
                g[k] = [x - q * y for x, y in zip(g[k], g[j])]
                for row in g + u:
                    row[k] -= q * row[j]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if b2[k] >= (delta - mu[k][k - 1] ** 2) * b2[k - 1]:
            k += 1
        else:  # exchange b_{k-1} and b_k
            g[k - 1], g[k] = g[k], g[k - 1]
            for row in g + u:
                row[k - 1], row[k] = row[k], row[k - 1]
            mu, b2 = _gso(g)
            k = max(k - 1, 1)
    return tuple(map(tuple, g)), tuple(map(tuple, u))


def _rank(cols) -> int:
    if not cols:
        return 0
    rows = [list(map(Fraction, col)) for col in cols]
    rank = 0
    ncols = len(rows[0])
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _minima_transform(g):
    """Greedy shortest generating set for dim <= 4 (post-LLL Gram input)."""
    m = len(g)
    bound = max(g[i][i] for i in range(m))
    half = sorted(enumerate_gram(g, bound), key=lambda t: (t[1], t[0]))
    chosen = []
    for coords, _ in half:
        if _rank(chosen + [coords]) > len(chosen):
            chosen.append(coords)
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


def reduce_basis(lat: Lattice) -> Lattice:
    """Reduce a lattice basis.

    For dim <= 4 the first vector of the result achieves the systole
    exactly; for larger dimensions the result is LLL-reduced with
    delta = 99/100.  The result spans the same lattice.
    """
    return reduce_with_transform(lat)[0]
