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
The two lowest levels are one loop nest whose leaves are the norms
x^T A x themselves, read off the completion; only the search bounds are
scaled by L.  With c_1 and e the tail sums of rows 1 and 0 over x_2, ...,
x_{n-1}, U the terms of levels 2 and up in L * x^T A x, and
c_0 = e + r_01 x_1,

    x^T A x = p_0 x_0^2 + 2 x_0 c_0 + alpha x_1^2 + beta x_1 + gamma,
    alpha = (w_1 p_1^2 + w_0 r_01^2) / L = A_11,
    beta = 2 (w_1 p_1 c_1 + w_0 r_01 e) / L,
    gamma = (U + w_1 c_1^2 + w_0 e^2) / L,

so alpha is fixed per call and beta and gamma per choice of x_2, ...,
x_{n-1}; no float and no Fraction is involved.  Each of the three
divisions by L must be exact, which is checked with an explicit
CertificationError that ``python -O`` keeps: alpha's once per call, beta's
and gamma's inline, one divmod each, once per choice of x_2, ..., x_{n-1}.
The tails of rows 0 and 1 are sliced once per call; under a zero tail
(x_2 = ... = x_{n-1} = 0) the row x_1 = 0, whose x_0 start at 1, is
written before the loop over x_1, so the loop tests no sign condition.
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
    """Counter {x^T A x: count} over canonical-sign nonzero x with
    x^T A x <= bound >= 0, for the form A that ``squares`` completes.

    A 1-D form [[p]] is padded to [[p, 0], [0, q]], q = p (bound + 1), so
    x_1 = 0 is forced; its completion is written in closed form: pivots
    (p, q), weights (q, 1) and L = p q.

    Canonical sign: the highest-index nonzero coordinate is positive.  A
    list given as ``vectors`` also receives (x, x^T A x) for each such x,
    in ascending order of (x_{m-1}, ..., x_0).

    alpha, beta and gamma of the module docstring are certified integers:
    if the three are, every leaf is one, so if some leaf is not an integer,
    one of them is not, and the check is at least as strict as one on
    every value.
    """
    pivots, rows, weights, total = squares
    m = len(pivots)
    if m == 1:  # complete [[a00, 0], [0, bound + 1]]: x_1 = 0 is forced
        p = pivots[0]
        q = p * (bound + 1)
        # what _squares((p, q), ((p, 0), (0, q))) makes: lcm(p, p q) = p q
        pivots, rows, weights, total = (p, q), ((p, 0), (0, q)), (q, 1), p * q
    n = len(pivots)
    budget = total * bound
    (p0, p1), (w0, w1), r01 = pivots[:2], weights[:2], rows[0][1]
    alpha = _exact(w1 * p1 * p1 + w0 * r01 * r01, total)
    x, leaves = [0] * n, []
    tail1, tail0 = rows[1][2:], rows[0][2:]

    def bottom(_, used, zerotail):
        """Levels 1 and 0 below the fixed x_2, ..., x_{n-1}."""
        high = x[2:]
        c1, e = sum(map(mul, tail1, high)), sum(map(mul, tail0, high))
        beta, rest = divmod(2 * (w1 * p1 * c1 + w0 * r01 * e), total)
        if rest:
            raise CertificationError("x^T A x is not an integer")
        gamma, rest = divmod(used + w1 * c1 * c1 + w0 * e * e, total)
        if rest:
            raise CertificationError("x^T A x is not an integer")
        s = isqrt((budget - used) // w1)
        if zerotail:  # c1 = e = 0: x_1 from 0, and x_0 from 1 when x_1 = 0
            row = range(1, isqrt(budget // w0) // p0 + 1)
            leaves.extend([p0 * v * v for v in row])
            if vectors is not None:
                tail = (0, *high)[:m - 1]
                vectors.extend([(v, *tail) for v in row])
            lo = 1
        else:
            lo = -((s + c1) // p1)
        for x1 in range(lo, (s - c1) // p1 + 1):
            t1, c0 = p1 * x1 + c1, e + r01 * x1
            s0 = isqrt((budget - used - w1 * t1 * t1) // w0)
            row = range(-((s0 + c0) // p0), (s0 - c0) // p0 + 1)
            base, k = gamma + x1 * (alpha * x1 + beta), 2 * c0
            leaves.extend([base + v * (p0 * v + k) for v in row])
            if vectors is not None:
                tail = (x1, *high)[:m - 1]
                vectors.extend([(v, *tail) for v in row])

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
    if vectors is not None:
        vectors[:] = list(zip(vectors, leaves))
    return Counter(leaves)


def _exact(num: int, den: int) -> int:
    """num / den, which the completion makes an integer."""
    q, r = divmod(num, den)
    if r:
        raise CertificationError("x^T A x is not an integer")
    return q


def _minimum(a, scale, squares) -> Fraction:
    """Least nonzero x^T a x / scale; a is LLL-reduced, completed by squares."""
    least = min(a[i][i] for i in range(len(a)))
    return Fraction(min(_norm_counts(squares, least)), scale)
