"""Short-vector enumeration in exact integer arithmetic.

The problem is first cleared of denominators: for a rational Gram matrix G
and rational bound b, a vector satisfies x^T G x <= b iff x^T A x <= B for
the integer matrix A = q*G (q the common denominator) and B = floor(q*b),
because x^T A x is an integer.

The integer problem is solved by Fincke-Pohst enumeration (Math. Comp. 44,
1985) on a fraction-free square completion.  The package's Bareiss
elimination (``linalg.eliminate``) of A gives integer pivots p_i (the
leading minors, p_{-1} = 1) and integer pivot rows r_ij with

    L * x^T A x = sum_i w_i * (p_i x_i + sum_{j>i} r_ij x_j)^2,
    w_i = L / (p_{i-1} p_i),  L = lcm of the p_{i-1} p_i,

so every quantity is an integer.  Coordinates are fixed from the last one
down; at level i, with R the part of L*B not yet used and C the tail sum,
the admissible x_i are exactly those with |p_i x_i + C| <= isqrt(R // w_i).
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

from .. import linalg
from ..errors import CertificationError, DomainError
from ..rational import rat
from .lattice import Lattice


def _integer_problem(gram, bound: Fraction):
    a, scale = linalg.clear_denominators(gram)
    scaled = bound * scale
    b = scaled.numerator // scaled.denominator
    return a, b, scale


def _completed_squares(a):
    """Pivots p, rows r and weights w, L of the integer square completion."""
    pivots, rows, swaps, _ = linalg.eliminate(a)
    if swaps or min(pivots) <= 0:
        raise ValueError("matrix is not positive definite")
    denoms = [lo * hi for lo, hi in zip([1] + pivots, pivots)]
    total = lcm(*denoms)
    weights = [total // d for d in denoms]
    return pivots, rows, weights, total


def _norm_counts(a, bound: int, vectors=None):
    """{x^T a x: count} over canonical-sign nonzero x with x^T a x <= bound.

    Canonical sign: the highest-index nonzero coordinate is positive.  A
    list given as ``vectors`` also receives (x, x^T a x) for each such x,
    in ascending order of (x_{m-1}, ..., x_0).
    """
    if bound < 0:
        return {}
    m = len(a)
    if m == 1:  # pad with a coordinate whose square alone passes the bound
        a = [[a[0][0], 0], [0, bound + 1]]
    n = len(a)
    pivots, rows, weights, total = _completed_squares(a)
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
    if any(raw % total for raw in counts):
        raise CertificationError("x^T A x is not an integer")
    if vectors is not None:
        vectors[:] = [(c, raw // total) for c, raw in zip(vectors, leaves)]
    return {raw // total: count for raw, count in counts.items()}


def enumerate_gram(gram, bound: Fraction):
    """Canonical-sign vectors (coords, squared length) for x^T gram x <= bound."""
    a, b, scale = _integer_problem(gram, bound)
    vectors = []
    _norm_counts(a, b, vectors)
    return [(coords, Fraction(value, scale)) for coords, value in vectors]


def short_vectors(lat: Lattice, bound):
    """All nonzero lattice vectors of squared length <= bound.

    Returns a list of (coords, norm_sq) with integer coordinates relative
    to the lattice basis, both signs included, sorted by (norm_sq, coords).
    """
    bound = rat(bound)
    if bound < 0:
        raise DomainError("enumeration bound must be >= 0")
    half = enumerate_gram(lat.gram, bound)
    full = []
    for coords, value in half:
        full.append((coords, value))
        full.append((tuple(-c for c in coords), value))
    full.sort(key=lambda item: (item[1], item[0]))
    return full


def systole(lat: Lattice) -> Fraction:
    """Smallest squared length of a nonzero lattice vector."""
    from .reduction import _lll_int

    a, scale = linalg.clear_denominators(lat.gram)
    return _minimum(_lll_int(a)[0], scale)


def _minimum(a, scale) -> Fraction:
    """Least nonzero x^T a x / scale for an LLL-reduced integer form a."""
    least = min(a[i][i] for i in range(len(a)))
    return Fraction(min(_norm_counts(a, least)), scale)
