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
The three lowest levels read the norms x^T A x off the completion's
coefficients; only the search bounds are scaled by L.  With b_1 and b_0
the tail sums of rows 1 and 0 over x_3, ..., x_{n-1}, c_2 that of row 2,
U the terms of levels 3 and up in L * x^T A x, c_1 = b_1 + r_12 x_2,
e = b_0 + r_02 x_2 and c_0 = e + r_01 x_1,

    x^T A x = p_0 x_0^2 + 2 x_0 c_0 + alpha x_1^2 + beta x_1 + gamma,
    alpha = A_11 = (w_1 p_1^2 + w_0 r_01^2) / L,
    beta = B_0 + 2 A_12 x_2,            gamma = G_0 + G_1 x_2 + A_22 x_2^2,
    2 A_12 = 2 (w_1 p_1 r_12 + w_0 r_01 r_02) / L,
    A_22 = (w_2 p_2^2 + w_1 r_12^2 + w_0 r_02^2) / L,
    B_0 = 2 (w_1 p_1 b_1 + w_0 r_01 b_0) / L,
    G_1 = 2 (w_2 p_2 c_2 + w_1 r_12 b_1 + w_0 r_02 b_0) / L,
    G_0 = (U + w_2 c_2^2 + w_1 b_1^2 + w_0 b_0^2) / L,

so A_11, 2 A_12 and A_22 are fixed per call and B_0, G_1 and G_0 per
choice of x_3, ..., x_{n-1}; no float and no Fraction is involved.  Each
of the six divisions by L must be exact, which is checked with an explicit
CertificationError that ``python -O`` keeps: the three entries once per
call, the three tail coefficients once per level-2 step, before its loop
over x_2, and none per choice of x_2.  The level-2 step hands level 1 its
c_1, e, beta and gamma, so the loop nest of levels 1 and 0 takes no tail
sum and divides nothing, and slices only to list vectors.  A form of
dimension 2 (a padded 1-D form too) has no level 2:
c_1 = e = beta = gamma = 0, and only A_11 is certified.  Each row of x_0
is recorded as a span (base, 2 c_0, range), with
base = alpha x_1^2 + beta x_1 + gamma, and one comprehension after the
walk makes every leaf base + x_0 (p_0 x_0 + 2 c_0).  Under a zero tail
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

    The coefficients of the module docstring are certified integers:
    A_11, 2 A_12 and A_22 once per call, and B_0, G_1 and G_0 once per
    choice of x_3, ..., x_{n-1}, before the loop over x_2.  If all six are
    integers, every beta, every gamma and every leaf is one, so if some
    leaf is not an integer, one of them is not, and the check is at least
    as strict as one on every value.  On a well-formed completion each is
    an entry of A or a partial sum of x^T A x, so no valid form is refused.
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
    x, spans = [0] * n, []

    def bottom(used, c1, e, beta, gamma, zerotail):
        """Levels 1 and 0 below the fixed x_2, ..., x_{n-1}."""
        s = isqrt((budget - used) // w1)
        if zerotail:  # c1 = e = 0: x_1 from 0, and x_0 from 1 when x_1 = 0
            row = range(1, isqrt(budget // w0) // p0 + 1)
            spans.append((0, 0, row))
            if vectors is not None:
                tail = (0, *x[2:])[:m - 1]
                vectors.extend([(v, *tail) for v in row])
            lo = 1
        else:
            lo = -((s + c1) // p1)
        for x1 in range(lo, (s - c1) // p1 + 1):
            t1, c0 = p1 * x1 + c1, e + r01 * x1
            s0 = isqrt((budget - used - w1 * t1 * t1) // w0)
            row = range(-((s0 + c0) // p0), (s0 - c0) // p0 + 1)
            spans.append((gamma + x1 * (alpha * x1 + beta), 2 * c0, row))
            if vectors is not None:
                tail = (x1, *x[2:])[:m - 1]
                vectors.extend([(v, *tail) for v in row])

    if n > 2:
        p2, w2, r02, r12 = pivots[2], weights[2], rows[0][2], rows[1][2]
        a12 = _exact(2 * (w1 * p1 * r12 + w0 * r01 * r02), total)
        a22 = _exact(w2 * p2 * p2 + w1 * r12 * r12 + w0 * r02 * r02, total)
        tail2, tail1, tail0 = rows[2][3:], rows[1][3:], rows[0][3:]

    def middle(_, used, zerotail):
        """Level 2 below the fixed x_3, ..., x_{n-1}."""
        high = x[3:]
        c2 = sum(map(mul, tail2, high))
        b1, b0 = sum(map(mul, tail1, high)), sum(map(mul, tail0, high))
        beta0 = _exact(2 * (w1 * p1 * b1 + w0 * r01 * b0), total)
        g1 = _exact(2 * (w2 * p2 * c2 + w1 * r12 * b1 + w0 * r02 * b0), total)
        g0 = _exact(used + w2 * c2 * c2 + w1 * b1 * b1 + w0 * b0 * b0, total)
        s = isqrt((budget - used) // w2)
        lo = 0 if zerotail else -((s + c2) // p2)
        for x2 in range(lo, (s - c2) // p2 + 1):
            t2 = p2 * x2 + c2
            x[2] = x2
            bottom(used + w2 * t2 * t2, b1 + r12 * x2, b0 + r02 * x2,
                   beta0 + a12 * x2, g0 + x2 * (g1 + a22 * x2),
                   zerotail and x2 == 0)
        x[2] = 0

    def rec(i, used, zerotail):
        p, w, row = pivots[i], weights[i], rows[i]
        c = sum(map(mul, row[i + 1:], x[i + 1:]))
        s = isqrt((budget - used) // w)
        below = rec if i > 3 else middle
        lo = 0 if zerotail else -((s + c) // p)
        for xi in range(lo, (s - c) // p + 1):
            t = p * xi + c
            x[i] = xi
            below(i - 1, used + w * t * t, zerotail and xi == 0)
        x[i] = 0

    if n == 2:
        bottom(0, 0, 0, 0, 0, True)
    else:
        (rec if n > 3 else middle)(n - 1, 0, True)
    leaves = [base + v * (p0 * v + k) for base, k, row in spans for v in row]
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
