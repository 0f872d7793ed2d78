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
the admissible x_i are exactly those with |p_i x_i + C| <= isqrt(R // w_i),
an interval found with two floor divisions.  No float and no Fraction is
involved.  Each emitted total must be a multiple of L, since x^T A x is an
integer; that is checked with an explicit CertificationError, which
``python -O`` keeps.
"""

from fractions import Fraction
from math import isqrt, lcm

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


def _short_vectors_int(a, bound: int):
    """Canonical-sign nonzero x with x^T a x <= bound, with exact values.

    Canonical sign: the highest-index nonzero coordinate is positive.  The
    vectors come in ascending order of (x_{m-1}, ..., x_0).
    """
    if bound < 0:
        return []
    m = len(a)
    pivots, rows, weights, total = _completed_squares(a)
    budget = total * bound
    out = []
    x = [0] * m

    def rec(i, used, zerotail):
        p, w, row = pivots[i], weights[i], rows[i]
        c = sum(row[j] * x[j] for j in range(i + 1, m))
        s = isqrt((budget - used) // w)
        lo = -((s + c) // p)
        if zerotail and lo < 0:
            lo = 0
        for xi in range(lo, (s - c) // p + 1):
            t = p * xi + c
            x[i] = xi
            if i:
                rec(i - 1, used + w * t * t, zerotail and xi == 0)
            elif not (zerotail and xi == 0):
                value, rest = divmod(used + w * t * t, total)
                if rest:
                    raise CertificationError("x^T A x is not an integer")
                out.append((tuple(x), value))
        x[i] = 0

    rec(m - 1, 0, True)
    return out


def enumerate_gram(gram, bound: Fraction):
    """Canonical-sign vectors (coords, squared length) for x^T gram x <= bound."""
    a, b, scale = _integer_problem(gram, bound)
    return [
        (coords, Fraction(value, scale))
        for coords, value in _short_vectors_int(a, b)
    ]


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
    return _gram_systole(lat.gram)


def _gram_systole(gram) -> Fraction:
    """``systole`` of a Gram matrix known to be positive definite."""
    from .reduction import _lll_int

    a, scale = linalg.clear_denominators(gram)
    a, _ = _lll_int(a)
    values = _short_vectors_int(a, min(a[i][i] for i in range(len(a))))
    return Fraction(min(value for _, value in values), scale)
