"""Short-vector enumeration in exact integer arithmetic.

Every form the kernel sees is an integer one: a lattice's own form and its
dual's (``Lattice._form`` and ``Lattice._dual_form``) are LLL-reduced
integer Gram matrices A = q*G, q the least integer that clears G's
denominators.  x^T G x <= b iff x^T A x <= floor(q*b), because x^T A x is
an integer, so callers scale their rational bounds once.

The integer problem is solved by Fincke-Pohst enumeration (Math. Comp. 44,
1985) on a fraction-free square completion.  The package's Bareiss
elimination (``linalg.eliminate``) of A gives integer pivots p_i (the
leading minors, p_{-1} = 1) and integer pivot rows r_ij with

    L * x^T A x = sum_i w_i * (p_i x_i + sum_{j>i} r_ij x_j)^2,
    w_i = L / (p_{i-1} p_i),  L = lcm of the p_{i-1} p_i,

so every quantity is an integer.  The kernel takes the completion that
``_squares`` makes from the table LLL returns with the reduced form, so no
form is eliminated twice.  Coordinates are fixed from the last one down; at
level i, with R the part of L*B not yet used and C the tail sum, the
admissible x_i are exactly those with |p_i x_i + C| <= isqrt(R // w_i).
The two lowest levels are one loop nest over t = p_i x_i + C that only
collects the totals L * x^T A x; no float and no Fraction is involved.
Each distinct total must be a multiple of L, since x^T A x is an integer;
that is checked with an explicit CertificationError, which ``python -O``
keeps.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from ..errors import CertificationError


def _squares(pivots, rows):
    """(p, r, w, L) of the form whose Bareiss pivots and rows are p and r."""
    denoms = [lo * hi for lo, hi in zip((1, *pivots), pivots)]
    total = lcm(*denoms)
    weights = tuple(total // d for d in denoms)
    return tuple(pivots), tuple(map(tuple, rows)), weights, total


def _norm_counts(squares, bound: int, vectors=None):
    """{x^T A x: count} over canonical-sign nonzero x with x^T A x <= bound,
    for the form A that ``squares`` completes.

    Canonical sign: the highest-index nonzero coordinate is positive.  A
    list given as ``vectors`` also receives (x, x^T A x) for each such x,
    in ascending order of (x_{m-1}, ..., x_0).
    """
    if bound < 0:
        return {}
    pivots, rows, weights, total = squares
    m = len(pivots)
    if m == 1:  # complete [[a00, 0], [0, bound + 1]]: x_1 = 0 is forced
        p, q = pivots[0], pivots[0] * (bound + 1)
        pivots, rows, weights, total = _squares((p, q), ((p, 0), (0, q)))
    n = len(pivots)
    budget = total * bound
    (p0, p1), (w0, w1), r01 = pivots[:2], weights[:2], rows[0][1]
    x, leaves = [0] * n, []

    def bottom(_, used, zerotail):
        """Levels 1 and 0 below the fixed x_2, ..., x_{n-1}."""
        c1 = sum(map(mul, rows[1][2:], x[2:]))
        c0 = sum(map(mul, rows[0][2:], x[2:]))
        s = isqrt((budget - used) // w1)
        start = 0 if zerotail else (s + c1) % p1 - s  # least t1 >= -s
        c0 += r01 * ((start - c1) // p1)
        for t1 in range(start, s + 1, p1):
            rest = used + w1 * t1 * t1
            s0 = isqrt((budget - rest) // w0)
            # x_0 from 1 under a zero tail, else the least t0 >= -s0
            t0 = p0 if zerotail else (s0 + c0) % p0 - s0
            zerotail = False
            leaves.extend([rest + w0 * t * t for t in range(t0, s0 + 1, p0)])
            if vectors is not None:
                tail = ((t1 - c1) // p1, *x[2:])[:m - 1]
                vectors.extend(
                    [((t - c0) // p0, *tail) for t in range(t0, s0 + 1, p0)]
                )
            c0 += r01

    def rec(i, used, zerotail):
        p, w, row = pivots[i], weights[i], rows[i]
        c = sum(map(mul, row[i + 1:], x[i + 1:]))
        s = isqrt((budget - used) // w)
        below = rec if i > 2 else bottom
        lo = 0 if zerotail else -((s + c) // p)
        for xi in range(lo, (s - c) // p + 1):
            t = p * xi + c
            x[i] = xi
            below(i - 1, used + w * t * t, zerotail and xi == 0)
        x[i] = 0

    (rec if n > 2 else bottom)(n - 1, 0, True)
    counts = Counter(leaves)
    if any(map(total.__rmod__, counts)):
        raise CertificationError("x^T A x is not an integer")
    if vectors is not None:
        vectors[:] = list(zip(vectors, map(total.__rfloordiv__, leaves)))
    return dict(zip(map(total.__rfloordiv__, counts), counts.values()))


def _minimum(a, scale, squares) -> Fraction:
    """Least nonzero x^T a x / scale; a is LLL-reduced, completed by squares."""
    least = min(a[i][i] for i in range(len(a)))
    return Fraction(min(_norm_counts(squares, least)), scale)
