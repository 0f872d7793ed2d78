"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Everything here is small and dense, so plain Gaussian elimination is fine.
"""

from fractions import Fraction

from .errors import DomainError

Matrix = tuple
Vector = tuple


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


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


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [list(row) + [Fraction(1) if i == r else Fraction(0) for i in range(n)]
         for r, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def leading_minors(a: Matrix) -> list:
    n = len(a)
    return [det(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(n)]


def is_positive_definite(a: Matrix) -> bool:
    return is_symmetric(a) and all(d > 0 for d in leading_minors(a))

