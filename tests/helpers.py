"""Shared test utilities: random lattice generators, the independent
box-enumeration oracle used to cross-check torus spectra, the
Fraction-based short-vector kernel used as the exact reference for the
library's integer kernel, and the Fraction-based Weyl dimension, Casimir
and Freudenthal code used as the exact reference for the library's
integer root-system tables."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from liespec import linalg
from liespec.errors import DomainError
from liespec.lattices import Lattice
from liespec.linalg import inverse
from liespec.rootdata import check_weight, dominant_rep, is_dominant


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


# Exact reference Lie primitives: the symmetrizer and the <theta,theta> = 2
# fundamental form as Fractions, rebuilt from the Cartan matrix alone, and
# Weyl dimension, Casimir and Freudenthal computed on them in Fractions.


@lru_cache(maxsize=None)
def fraction_tables(rs):
    """(symmetrizer d, fundamental form) as Fractions, <theta,theta> = 2."""
    cartan, n = rs.cartan, rs.rank
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    theta = rs.pos_roots_rootc[rs.pos_roots_fund.index(rs.highest_root)]
    theta_sq = sum(
        theta[i] * theta[j] * cartan[i][j] * d[j]
        for i in range(n)
        for j in range(n)
    )
    d = tuple(x * Fraction(2) / theta_sq for x in d)
    cinv = linalg.inverse(linalg.mat(cartan))
    fund_form = tuple(
        tuple(cinv[i][j] * d[j] for j in range(n)) for i in range(n)
    )
    return d, fund_form


def ref_ip_norm(rs, u, v) -> Fraction:
    total = Fraction(0)
    form = fraction_tables(rs)[1]
    for i, ui in enumerate(u):
        if ui:
            row = form[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


def ref_casimir(rs, weight) -> Fraction:
    lam = check_weight(rs, weight)
    if not is_dominant(lam):
        raise DomainError("casimir expects a dominant weight")
    shifted = tuple(x + 2 for x in lam)
    return ref_ip_norm(rs, lam, shifted) / (2 * rs.dual_coxeter)


def _root_ip_vectors(rs):
    d = fraction_tables(rs)[0]
    return [
        tuple(rc[k] * d[k] for k in range(rs.rank))
        for rc in rs.pos_roots_rootc
    ]


def _pairing(vec, weight) -> Fraction:
    return sum(v * w for v, w in zip(vec, weight))


def ref_weyl_dim(rs, weight) -> int:
    lam = check_weight(rs, weight)
    if not is_dominant(lam):
        raise DomainError("weyl_dim expects a dominant weight")
    shifted = tuple(x + 1 for x in lam)
    num = Fraction(1)
    den = Fraction(1)
    for vec in _root_ip_vectors(rs):
        num *= _pairing(vec, shifted)
        den *= _pairing(vec, rs.rho)
    value = num / den
    if value.denominator != 1 or value <= 0:
        raise DomainError("Weyl dimension did not come out a positive integer")
    return int(value)


def _floor_sqrt(value: Fraction) -> int:
    if value < 0:
        return -1
    return isqrt(value.numerator // value.denominator)


def _dominant_candidates(rs, lam):
    n = rs.rank
    fund_form = fraction_tables(rs)[1]
    lam_sq = ref_ip_norm(rs, lam, lam)
    box = []
    for j in range(n):
        box.append(range(_floor_sqrt(lam_sq / fund_form[j][j]) + 1))
    cinv_t = linalg.transpose(linalg.inverse(linalg.mat(rs.cartan)))
    out = []
    for mu in itertools.product(*box):
        diff = tuple(Fraction(a - b) for a, b in zip(lam, mu))
        coeffs = linalg.matvec(cinv_t, diff)
        if all(c.denominator == 1 and c >= 0 for c in coeffs):
            out.append((mu, sum(int(c) for c in coeffs)))
    out.sort(key=lambda t: (t[1], t[0]))  # by height of lam - mu
    return out


def ref_dominant_character(rs, weight) -> tuple:
    lam = check_weight(rs, weight)
    if not is_dominant(lam):
        raise DomainError("character expects a dominant highest weight")
    root_vecs = _root_ip_vectors(rs)
    lam_shift_sq = ref_ip_norm(
        rs, tuple(x + 1 for x in lam), tuple(x + 1 for x in lam)
    )
    cinv_t = linalg.transpose(linalg.inverse(linalg.mat(rs.cartan)))

    def in_cone(nu):
        diff = tuple(Fraction(a - b) for a, b in zip(lam, nu))
        coeffs = linalg.matvec(cinv_t, diff)
        return all(c.denominator == 1 and c >= 0 for c in coeffs)

    mults = {}
    for mu, height in _dominant_candidates(rs, lam):
        if height == 0:
            mults[mu] = 1
            continue
        mu_shift = tuple(x + 1 for x in mu)
        denom = lam_shift_sq - ref_ip_norm(rs, mu_shift, mu_shift)
        total = Fraction(0)
        for beta_fund, vec in zip(rs.pos_roots_fund, root_vecs):
            k = 1
            while True:
                nu = tuple(m + k * b for m, b in zip(mu, beta_fund))
                if not in_cone(nu):
                    break
                mult_nu = mults.get(dominant_rep(rs, nu), 0)
                if mult_nu:
                    total += mult_nu * _pairing(vec, nu)
                k += 1
        if total == 0:
            continue  # mu is not a weight of V_lambda
        value = 2 * total / denom
        if value.denominator != 1 or value < 0:
            raise DomainError("Freudenthal recursion produced a non-integer")
        if value:
            mults[mu] = int(value)
    return tuple(sorted(mults.items()))
