"""Exact linear algebra over the rationals.

Matrices are sequences of rows of ints or Fractions: transpose, product,
symmetry and adjugate.  There are no vector routines; the root-system
and weight code takes its dot products in integers with
``sum(map(mul, u, v))``.  Every elimination in the package is
``eliminate``, fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
of an integer matrix with no row exchange: Gauss-Jordan when it carries an
augmented block, Gaussian otherwise; rational input is cleared of
denominators first.  Its pivots are the leading principal minors, up to
the first zero one, where it stops.  Every matrix the package eliminates
has them all positive or is refused: a lattice's Gram matrix and an
embedding's row Gram matrix, positive definite exactly then (Sylvester's
criterion), and a Cartan matrix.  The last pivot is the determinant, and
the block against the identity the adjugate (every inverse is adj / det).
"""

from math import lcm

from .errors import DomainError

Matrix = tuple


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def clear_denominators(a):
    """(q*a as lists of ints, q) for the least positive integer q that
    makes every entry of the rational matrix a an integer."""
    q = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (q // x.denominator) for x in row] for row in a], q


def eliminate(a, aug=None):
    """Fraction-free elimination of a square integer matrix, with no row
    exchange: Gauss-Jordan with an augmented block, Gaussian without one.

    Step k takes row k as the pivot row and replaces each row r below it,
    and with ``aug`` each row above it too, by
    (p_k r - r_k row_k) // p_{k-1}, always an exact division (p_{-1} = 1).
    A row below the pivot belongs to no result yet, so it is updated in
    place; a row above it is a pivot row already returned, so it is
    replaced by a new list and the returned one never changes.  A row above
    the pivot feeds only the augmented block, so without one it is left as
    it stands.  ``aug`` is an optional integer block with one row per row
    of a; neither a nor ``aug`` is changed.

    Returns (pivots, rows, right): the pivots p_k, the leading principal
    minors of a, ending at the first 0 if a has a zero one; each pivot row
    as it stood at its own step (zero before column k, p_k at column k, and
    for a symmetric matrix p_k mu_jk at column j > k); and the augmented
    block, p_{n-1} a^{-1} aug = adj(a) aug when no pivot is 0.  Pivots and
    rows do not depend on ``aug``.
    """
    n = len(a)
    if aug:
        m = [[*row, *extra] for row, extra in zip(a, aug)]
    else:
        m = [list(row) for row in a]
    pivots, rows, prev = [], [], 1
    for k, top in enumerate(m):
        p, tail = top[k], top[k:]
        pivots.append(p)
        if not p:
            break
        for row in m[k + 1:]:
            f = row[k]
            row[k:] = [(p * x - f * y) // prev for x, y in zip(row[k:], tail)]
        if aug:
            for i in range(k):
                row = m[i]
                f = row[k]
                m[i] = row[:k] + [
                    (p * x - f * y) // prev for x, y in zip(row[k:], tail)
                ]
        rows.append(top)
        prev = p
    return pivots, rows, [row[n:] for row in m]


def adjugate(a) -> tuple:
    """(adj a, det a) of a square integer matrix with no zero leading
    minor: Gauss-Jordan against the identity leaves p_{n-1} a^{-1} = adj a.
    DomainError at a zero leading minor, which a singular matrix has."""
    n = len(a)
    # each row of the identity joined from tuples, with no int(i == j) per
    # entry; eliminate copies it and leaves it as it was
    eye = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    pivots, _, right = eliminate(a, eye)
    if not pivots[-1]:
        raise DomainError("matrix has a zero leading principal minor")
    return right, pivots[-1]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
