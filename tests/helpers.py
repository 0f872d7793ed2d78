"""Shared test utilities: random lattice generators, the independent
box-enumeration oracle used to cross-check torus spectra, and the
Fraction-based short-vector kernel used as the exact reference for the
library's integer kernel."""

import math
from fractions import Fraction
from math import isqrt

import numpy as np

from liespec.lattices import Lattice
from liespec.linalg import inverse


def random_integer_basis(rng, m, lo=-2, hi=2):
    """Integer basis matrix with nonzero determinant (columns generate)."""
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(lo, hi)) for _ in range(m))
            for _ in range(m)
        )
        det = _det_int(rows)
        if det != 0:
            return rows


def random_rational_basis(rng, m, denoms=(1, 2, 3)):
    while True:
        rows = tuple(
            tuple(
                Fraction(rng.randint(-2, 2), rng.choice(denoms))
                for _ in range(m)
            )
            for _ in range(m)
        )
        if _det_int(rows) != 0:
            return rows


def _det_int(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det_int(minor)
    return total


def box_oracle_spectrum(lat: Lattice, cutoff: Fraction) -> dict:
    """Exact truncated torus spectrum by brute-force box enumeration.

    Clears denominators to an integer quadratic form and counts lattice
    points with int64 numpy arithmetic, chunked along the first axis so the
    candidate box never materializes at once.  Completely independent of
    the library's recursive enumeration.
    """
    q = inverse(lat.gram)
    m = lat.dim
    scale = math.lcm(*[x.denominator for row in q for x in row])
    a = np.array(
        [[int(x * scale) for x in row] for row in q], dtype=np.int64
    )
    bound_frac = cutoff * scale
    assert bound_frac.denominator == 1
    bound = int(bound_frac)
    # |x_i|^2 <= cutoff * (q^{-1})_ii = cutoff * gram_ii
    radius = []
    for i in range(m):
        cap = cutoff * lat.gram[i][i]
        radius.append(math.isqrt(cap.numerator // cap.denominator) + 1)
    counts = {}
    if m == 1:
        axis = np.arange(-radius[0], radius[0] + 1, dtype=np.int64)
        vals = a[0][0] * axis * axis
        keep = vals <= bound
        uniq, cnt = np.unique(vals[keep], return_counts=True)
        for v, c in zip(uniq.tolist(), cnt.tolist()):
            counts[Fraction(v, scale)] = counts.get(Fraction(v, scale), 0) + c
        return counts
    tail_axes = [
        np.arange(-radius[i], radius[i] + 1, dtype=np.int64)
        for i in range(1, m)
    ]
    grids = np.meshgrid(*tail_axes, indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    a_tail = a[1:, 1:]
    tail_sq = np.einsum("ni,ij,nj->n", tail, a_tail, tail)
    cross = tail @ a[0, 1:]
    for x0 in range(-radius[0], radius[0] + 1):
        vals = a[0, 0] * x0 * x0 + 2 * x0 * cross + tail_sq
        keep = vals <= bound
        uniq, cnt = np.unique(vals[keep], return_counts=True)
        for v, c in zip(uniq.tolist(), cnt.tolist()):
            key = Fraction(int(v), scale)
            counts[key] = counts.get(key, 0) + int(c)
    return counts


# Exact reference kernel: completes squares on a rational decomposition of
# the integer Gram matrix and prunes each coordinate to an exact integer
# interval with Fractions.  Same contract as the library kernel: nonzero
# integer x with x^T a x <= bound whose highest-index nonzero coordinate is
# positive, each with its exact value, in the same order.


def _floor_center_plus_sqrt(c: Fraction, s: Fraction) -> int:
    """Largest integer x with x <= -c + sqrt(s), for rational c and s >= 0."""
    p, q = s.numerator, s.denominator
    root = Fraction(isqrt(p * q), q)  # floor-ish lower bound for sqrt(s)
    x = (-c + root).__floor__()
    # fix up against the exact predicate x + c <= sqrt(s)
    while (x + 1 + c) <= 0 or (x + 1 + c) ** 2 <= s:
        x += 1
    while not ((x + c) <= 0 or (x + c) ** 2 <= s):
        x -= 1
    return x


def _ceil_center_minus_sqrt(c: Fraction, s: Fraction) -> int:
    """Smallest integer x with x >= -c - sqrt(s)."""
    return -_floor_center_plus_sqrt(-c, s)


def decompose(a):
    """Rational decomposition Q(x) = sum_i d[i] * (x_i + sum_{j>i} u[i][j] x_j)^2."""
    m = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    d = [Fraction(0)] * m
    u = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        d[i] = work[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, m):
            u[i][j] = work[i][j] / d[i]
        for k in range(i + 1, m):
            for l in range(k, m):
                work[k][l] -= d[i] * u[i][k] * u[i][l]
    return d, u


def short_vectors_int(a, bound: int):
    """All canonical-sign nonzero x with x^T a x <= bound, plus exact values."""
    m = len(a)
    if bound < 0:
        return []
    d, u = decompose(a)
    big_b = Fraction(bound)
    out = []
    x = [0] * m

    def rec(i: int, used: Fraction, zerotail: bool):
        remaining = big_b - used
        c = sum(u[i][j] * x[j] for j in range(i + 1, m)) if i + 1 < m else Fraction(0)
        s = remaining / d[i]
        lo = _ceil_center_minus_sqrt(c, s)
        hi = _floor_center_plus_sqrt(c, s)
        if zerotail and lo < 0:
            lo = 0
        for xi in range(lo, hi + 1):
            zt = zerotail and xi == 0
            total = used + d[i] * (xi + c) ** 2
            if total > big_b:
                continue
            x[i] = xi
            if i == 0:
                if not zt:
                    assert total.denominator == 1
                    out.append((tuple(x), int(total)))
            else:
                rec(i - 1, total, zt)
        x[i] = 0

    rec(m - 1, Fraction(0), True)
    return out
