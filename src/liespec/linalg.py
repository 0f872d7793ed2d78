"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Every elimination in the package is ``eliminate``, fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) of an integer matrix:
Gauss-Jordan when it carries an augmented block, Gaussian otherwise, with
the same pivots and pivot rows either way; rational input is cleared of
denominators first.  Its pivots give the determinant, its block against
the identity the adjugate (every inverse is adj / det), and for a
symmetric matrix they decide positive-definiteness: positive pivots and no
row exchange, the pivots then being the leading principal minors.
"""

from fractions import Fraction
from math import lcm

from .errors import DomainError

Matrix = tuple
Vector = tuple


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def form_value(g: Matrix, u: Vector, v: Vector) -> Fraction:
    """u^T g v for a bilinear form g."""
    return dot(u, matvec(g, v))


def clear_denominators(a):
    """(q*a as lists of ints, q) for the least positive integer q that
    makes every entry of the rational matrix a an integer."""
    q = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (q // x.denominator) for x in row] for row in a], q


def eliminate(a, aug=None):
    """Fraction-free elimination of a square integer matrix: Gauss-Jordan
    with an augmented block, Gaussian without one.

    Step k exchanges into place the first row at or below k that is
    nonzero in column k, then replaces each row r below it, and with
    ``aug`` each row above it too, by (p_k r - r_k row_k) // p_{k-1},
    always an exact division (p_{-1} = 1).  A row above the pivot feeds
    only the augmented block, so without one it is left as it stands.
    ``aug`` is an optional integer block with one row per row of a.

    Returns (pivots, rows, swaps, right): the pivots p_k, the leading
    minors of the row-exchanged matrix, ending at a 0 for a singular one;
    each pivot row as it stood at its own step (zero before column k, p_k
    at column k, and for a symmetric matrix p_k mu_jk at column j > k);
    the number of row exchanges, so det a = (-1)^swaps p_{n-1}; and the
    augmented block, now p_{n-1} a^{-1} aug.  Pivots, rows and swaps do
    not depend on ``aug``.
    """
    n = len(a)
    m = [list(row) + list(aug[i] if aug else ()) for i, row in enumerate(a)]
    pivots, rows, swaps, prev = [], [], 0, 1
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            pivots.append(0)
            break
        if r != k:
            m[k], m[r] = m[r], m[k]
            swaps += 1
        top = m[k]
        p, tail = top[k], top[k:]
        for i in range(0 if aug else k + 1, n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = row[:k] + [
                    (p * x - f * y) // prev for x, y in zip(row[k:], tail)
                ]
        pivots.append(p)
        rows.append(top)
        prev = p
    return pivots, rows, swaps, [row[n:] for row in m]


def det(a: Matrix) -> Fraction:
    ints, q = clear_denominators(a)
    pivots, _, swaps, _ = eliminate(ints)
    return Fraction((-1) ** swaps * pivots[-1], q ** len(a))


def adjugate(a) -> tuple:
    """(adj a, det a) of a nonsingular square integer matrix: Gauss-Jordan
    against the identity leaves p_{n-1} a^{-1} = (-1)^swaps adj a."""
    eye = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    pivots, _, swaps, right = eliminate(a, eye)
    if not pivots[-1]:
        raise DomainError("matrix is singular")
    if swaps % 2:
        return [[-x for x in row] for row in right], -pivots[-1]
    return right, pivots[-1]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
