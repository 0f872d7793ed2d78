"""Shared test utilities: random lattice generators, the independent
box-enumeration oracle used to cross-check torus spectra, the
Fraction-based short-vector kernel used as the exact reference for the
library's integer kernel, the Fraction-based Weyl dimension, Casimir
and Freudenthal code used as the exact reference for the library's
integer root-system tables, the product-diagram branching peel with
the per-metric term builder, ``ref_term_catalogue`` (the catalogue's
denominator and rows in Fractions) and grid scan on top of it,
used as the exact reference for dominant-only branching and the term
catalogue, the elementary-matrix LLL used as the exact reference for the
library's integral LLL, ``ref_lll_int``, that integral LLL as it was when it
also carried the unimodular transform U, which ``reduce_with_transform``
uses and whose (a, d, lam) the library's transform-free LLL must match,
``ref_eliminate``, the fraction-free Gauss-Jordan elimination with no row
exchange that clears above every pivot and stops at the first zero one,
used as the reference for the library's elimination, which clears above a
pivot only for an augmented block,
``short_vectors`` (both signs, sorted) and
``reduce_with_transform`` (LLL plus the shortest generating set, which
only tests use now), the former public conveniences, now on the
library's integer kernel and reduction, ``ref_congruent``, the Fraction
congruence test on the reference LLL and kernel, used as the exact
reference for congruence on the cached integer forms, and
``ref_torus_search``, the search that builds each candidate through
``Lattice.from_gram`` and drops congruent ones with ``ref_congruent``,
used as the reference for the search's output, the Fraction Gaussian elimination, Gauss-Jordan
inverse and Gram-Schmidt used as the exact references for the library's one
fraction-free elimination, the root-string positive roots, hand-typed
-w0 involutions and Fraction coroots used as the exact references for
root data derived by Weyl reflections, and the Fraction-keyed
bi-invariant and normal quotient spectra used as the exact references for
the one integer evaluator, the principal-A1 q-dimension closed form
used as an oracle for branching that shares no code with it, and the
Fraction-Counter table distance used as the exact reference for the
integer count, ``ref_table``, a table of Fraction entries over the
lcm of their denominators, for the reference tables, and ``ref_table_json``,
a table's JSON object through ``json.dumps``, used as the exact reference
for the table's direct JSON writer, ``ref_spherical_mult`` (the trivial
K-type's multiplicity read from ``ref_branch``) and ``ref_center_admissible``
(the Fraction sum of the Gamma pairings), used as the exact references for
the normal quotient and the integer Gamma form, and ``ref_contragredient``,
the dual's highest weight as the dominant weight in the Weyl orbit of -lam,
used as the reference for the -w0 tables, ``matvec``, ``form_value`` and
``dominant_weights_up_to`` (the walk's weights alone), test utilities the
library no longer has, ``weyl_dim`` and ``dominant_character``, the
library's weight gate in front of its unchecked Weyl dimension and
Freudenthal cores, for the tests that hand them outside weights, and
``kostant_multiplicity``, Kostant's formula over a memoized partition
function, used as an oracle for Freudenthal's characters that shares no
code with them, and ``ref_tensor``, Brauer-Klimyk on weight tuples with
its own dot action, the library's tuple tensor product as it was before
G's tensor step moved onto the packed kernel, used as its reference."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import add

import numpy as np

from liespec import linalg
from liespec.branching import (
    BranchingResult, EmbeddingSpec, branch, killing_ratio
)
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.errors import (
    CertificationError,
    DomainError,
    InadmissibleMetricError,
    LiespecError,
    MalformedEmbeddingError,
    UnsupportedDimensionError,
)
from liespec.groups import GroupSpec
from liespec.isolation import _grid_multipliers
from liespec.lattices import Lattice, dual, systole
from liespec.lattices.congruence import MAX_DIM
from liespec.lattices.enumeration import _norm_counts, _squares
from liespec.lattices.reduction import _exact as _lll_exact
from liespec.natred import NatRedMetric
from liespec.rational import exact_int, fmt, rat
from liespec.rootdata import (
    _chamber, _contragredient, build, casimir, check_dominant, check_weight
)
from liespec.spectrum import SpectrumTable
from liespec.weights import (
    _dominant_casimirs, _dominant_character, _weyl_dim, weight_diagram
)


# Vector utilities and the dominant-weight list, which only tests read:
# the library takes its dot products in integers and reads the walk's
# (weight, casimir_num, weyl_dim) triples whole.


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def form_value(g, u, v):
    """u^T g v for a bilinear form g."""
    return sum(x * y for x, y in zip(u, matvec(g, v)))


# Weight utilities that only tests read: the library checks a weight once,
# at its public door, and its cores read ``_chamber`` and ``_contragredient``
# on checked tuples.


def is_dominant(weight) -> bool:
    return all(x >= 0 for x in weight)


def dominant_rep(rs, weight):
    """The dominant weight in the Weyl orbit of ``weight``."""
    return _chamber(rs.cartan, tuple(weight))[0]


def contragredient_tuple(emb: EmbeddingSpec, tup) -> tuple:
    """The library's -w0 tables applied to each part of a branch label."""
    return tuple(map(_contragredient, emb.factors, tup))


def weyl_dim(rs, weight) -> int:
    """dim V_weight: the library's weight gate, then its Weyl core."""
    lam = check_dominant(rs, weight, "weyl_dim expects a dominant weight")
    return _weyl_dim(rs, lam)


def dominant_character(rs, weight) -> tuple:
    """Freudenthal's dominant character of V_weight, behind the gate."""
    message = "character expects a dominant highest weight"
    return _dominant_character(rs, check_dominant(rs, weight, message))


def weight_doors() -> dict:
    """{name: call on one weight of B2} for each public function that takes
    a dominant weight, the doors of the library's one weight gate, and for
    the two wrappers above and ``ref_center_admissible``, which pass an
    outside weight through the same gate."""
    b2 = build("B2")
    emb = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
    group = GroupSpec(factors=(b2,))
    return {
        "casimir": lambda w: casimir(b2, w),
        "weyl_dim": lambda w: weyl_dim(b2, w),
        "dominant_character": lambda w: dominant_character(b2, w),
        "weight_diagram": lambda w: weight_diagram(b2, w),
        "branch": lambda w: branch(emb, w),
        "center_admissible": lambda w: ref_center_admissible(group, (w,)),
    }


def dominant_weights_up_to(rs, cas_max) -> list:
    """All dominant weights with casimir <= cas_max, in graded-lex order:
    the weights of ``weights._dominant_casimirs``."""
    return [w for w, _, _ in _dominant_casimirs(rs, cas_max)]


# Exact Fraction elimination: Gaussian elimination for the determinant,
# Gauss-Jordan for the inverse and Gram-Schmidt from a Gram matrix.  They
# share nothing with the library's fraction-free elimination.


def _fractions(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def ref_det(a):
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


def volume(lat) -> Fraction:
    """|det basis| of a lattice given by a basis, its covolume."""
    return abs(ref_det(lat.basis))


def value_set(gv) -> tuple:
    """The distinct entries of a ``GammaVector``, sorted."""
    return tuple(sorted(set(gv.entries)))


def ref_inverse(a):
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


def ref_eliminate(a, aug=None):
    """Fraction-free Gauss-Jordan elimination of a square integer matrix
    with no row exchange, every row cleared above and below each pivot
    whether or not an augmented block is given: the reference for
    ``linalg.eliminate``, which clears above a pivot only for an augmented
    block.

    Step k takes row k as the pivot row and replaces every other row r by
    (p_k r - r_k row_k) // p_{k-1}, always an exact division (p_{-1} = 1);
    it stops at the first zero pivot.  ``aug`` is an optional integer block
    with one row per row of a.

    Returns (pivots, rows, right): the pivots p_k, the leading principal
    minors of a, ending at the first 0 if a has a zero one; each pivot row
    as it stood at its own step (zero before column k, p_k at column k, and
    for a symmetric matrix p_k mu_jk at column j > k); and the augmented
    block, p_{n-1} a^{-1} aug when no pivot is 0.
    """
    n = len(a)
    m = [list(row) + list(aug[i] if aug else ()) for i, row in enumerate(a)]
    pivots, rows, prev = [], [], 1
    for k in range(n):
        top = m[k]
        p = top[k]
        pivots.append(p)
        if not p:
            break
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = row[:k] + [
                    (p * x - f * y) // prev for x, y in zip(row[k:], top[k:])
                ]
        rows.append(top)
        prev = p
    return pivots, rows, [row[n:] for row in m]


def ref_gso(g):
    """Gram-Schmidt data (mu, b_star_sq) computed from a Gram matrix."""
    m = len(g)
    mu = [[Fraction(0)] * m for _ in range(m)]
    b2 = [Fraction(0)] * m
    for i in range(m):
        for k in range(i):
            num = g[i][k] - sum(mu[i][j] * mu[k][j] * b2[j] for j in range(k))
            mu[i][k] = num / b2[k]
        b2[i] = g[i][i] - sum(mu[i][j] ** 2 * b2[j] for j in range(i))
        if b2[i] <= 0:
            raise LiespecError("Gram matrix not positive definite in LLL")
    return mu, b2


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
    q = ref_inverse(lat.gram)
    m = lat.dim
    scale = math.lcm(*[x.denominator for row in q for x in row])
    a = np.array(
        [[int(x * scale) for x in row] for row in q], dtype=np.int64
    )
    bound_frac = cutoff * scale
    if bound_frac.denominator != 1:
        raise AssertionError("box oracle bound is not an integer")
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
                    if total.denominator != 1:
                        raise AssertionError("reference norm is not an integer")
                    out.append((tuple(x), int(total)))
            else:
                rec(i - 1, total, zt)
        x[i] = 0

    rec(m - 1, Fraction(0), True)
    return out


def short_vectors(lat: Lattice, bound):
    """All nonzero lattice vectors of squared length <= bound, both signs
    included, sorted by (norm_sq, coords): the kernel's vectors of the
    integer form q*G, completed by one elimination, and their negatives."""
    bound = rat(bound)
    if bound < 0:
        raise DomainError("enumeration bound must be >= 0")
    a, q = linalg.clear_denominators(lat.gram)
    found = []
    squares = _squares(*linalg.eliminate(a)[:2])
    _norm_counts(squares, bound.numerator * q // bound.denominator, found)
    full = []
    for coords, value in found:
        value = Fraction(value, q)
        full += [(coords, value), (tuple(-c for c in coords), value)]
    full.sort(key=lambda item: (item[1], item[0]))
    return full


# Reference LLL: every size-reduction step and every swap is an elementary
# Fraction matrix E applied as g -> E^T g E and U -> U E, with the
# Gram-Schmidt data recomputed after each step.


def _col_elementary(m, j, k, q):
    """Identity with -q at (j, k): the column operation b_k -= q * b_j."""
    e = [[Fraction(1) if a == b else Fraction(0) for b in range(m)] for a in range(m)]
    e[j][k] = Fraction(-q)
    return tuple(tuple(row) for row in e)


def _col_swap(m, j, k):
    e = [[Fraction(1) if a == b else Fraction(0) for b in range(m)] for a in range(m)]
    e[j][j] = e[k][k] = Fraction(0)
    e[j][k] = e[k][j] = Fraction(1)
    return tuple(tuple(row) for row in e)


def _apply(g, u, e):
    return linalg.matmul(linalg.transpose(e), linalg.matmul(g, e)), linalg.matmul(u, e)


DELTA = Fraction(99, 100)


def ref_lll_gram(g, delta: Fraction = DELTA):
    m = len(g)
    u = tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m))
    if m == 1:
        return g, u
    k = 1
    while k < m:
        mu, b2 = ref_gso(g)
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + Fraction(1, 2)).__floor__()
            if q != 0:
                g, u = _apply(g, u, _col_elementary(m, j, k, q))
                mu, b2 = ref_gso(g)
        if b2[k] >= (delta - mu[k][k - 1] ** 2) * b2[k - 1]:
            k += 1
        else:
            g, u = _apply(g, u, _col_swap(m, k - 1, k))
            k = max(k - 1, 1)
    return g, u


def _minima_transform(a, squares):
    """(V^T a V, V) for a shortest generating set V of the LLL-reduced
    integer form a of dim <= 4, which ``squares`` completes."""
    m = len(a)
    found = []
    _norm_counts(squares, max(a[i][i] for i in range(m)), found)
    chosen = []
    for coords, _ in sorted(found, key=lambda t: (t[1], t[0])):
        trial = chosen + [coords]
        # independent iff their integer Gram matrix, which is positive
        # semidefinite, is positive definite: iff its determinant is > 0
        gram = [[sum(x * y for x, y in zip(s, t)) for t in trial] for s in trial]
        if ref_det(_fractions(gram)) > 0:
            chosen = trial
            if len(chosen) == m:
                break
    v = tuple(tuple(chosen[j][i] for j in range(m)) for i in range(m))
    if abs(ref_det(_fractions(v))) != 1:
        # cannot happen for m <= 4: minima vectors generate the lattice
        raise LiespecError("successive-minima vectors failed to generate")
    return linalg.matmul(linalg.transpose(v), linalg.matmul(a, v)), v


def ref_lll_int(a, table):
    """(a reduced in place, U, d, lam) for a positive-definite integer Gram a
    and ``table``, what ``linalg.eliminate(a)`` returns for it.

    d_k is the k-th Bareiss pivot, the Gram determinant of the first k+1
    vectors, and lam[j][k] = d_j mu_kj: the table ``linalg.eliminate``
    gives for the returned a.  LLL updates copies of the pivots and rows of
    ``table`` and leaves it as it was.  Size reduction is a column
    operation on a, U and lam (lam[i][j] is 0 for i > j, and d_j for
    i = j); a swap of b_{k-1} and b_k changes only d_{k-1} and rows k-1, k
    of lam (SWAPI).
    """
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    d, lam, _ = table
    if min(d) <= 0:
        raise LiespecError("Gram matrix not positive definite in LLL")
    d, lam = list(d), [list(row) for row in lam]
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            r = (2 * lam[j][k] + d[j]) // (2 * d[j])  # floor(mu_kj + 1/2)
            if r:  # b_k -= r * b_j
                a[k] = [x - r * y for x, y in zip(a[k], a[j])]
                for row in a + u + lam:
                    row[k] -= r * row[j]
        # Lovasz with delta = 99/100, times 100 d_{k-1} d_{k-2} (d_{-1} = 1)
        before = d[k - 2] if k > 1 else 1
        lk, dk, dk1 = lam[k - 1][k], d[k], d[k - 1]
        if 100 * dk * before >= 99 * dk1 ** 2 - 100 * lk ** 2:
            k += 1
        else:  # exchange b_{k-1} and b_k
            a[k - 1], a[k] = a[k], a[k - 1]
            for row in a + u + lam[:k - 1]:
                row[k - 1], row[k] = row[k], row[k - 1]
            b = _lll_exact(before * dk + lk * lk, dk1)  # the new d_{k-1}
            lo, hi = lam[k - 1], lam[k]
            for i in range(k + 1, m):
                t = hi[i]
                hi[i] = _lll_exact(dk * lo[i] - lk * t, dk1)
                lo[i] = _lll_exact(b * t + lk * hi[i], dk)
            d[k - 1] = lo[k - 1] = b
            k = max(k - 1, 1)
    return a, u, d, lam


def reduce_with_transform(lat: Lattice):
    """Reduced lattice plus the unimodular transform U (new = old * U): the
    reference LLL with its transform on q*G and, for dim <= 4, its shortest
    generating set."""
    a, q = linalg.clear_denominators(lat.gram)
    a, u, d, lam = ref_lll_int(a, linalg.eliminate(a))
    if lat.dim <= 4:
        a, v = _minima_transform(a, _squares(d, lam))
        u = linalg.matmul(u, v)
    u = _fractions(u)
    gram = tuple(tuple(Fraction(x, q) for x in row) for row in a)
    basis = linalg.matmul(lat.basis, u) if lat.basis is not None else None
    return Lattice(gram=gram, basis=basis), u


# Reference congruence: the Fraction congruence test that the integer one
# on cached forms replaced, with its reduction by ``ref_lll_gram`` and its
# short vectors from the reference kernel ``short_vectors_int``.


def _ref_enumerate(gram, bound):
    """(x, x^T gram x) for the canonical-sign x with x^T gram x <= bound."""
    a, scale = linalg.clear_denominators(gram)
    scaled = bound * scale
    found = short_vectors_int(a, scaled.numerator // scaled.denominator)
    return [(coords, Fraction(value, scale)) for coords, value in found]


def _ref_minima_transform(g):
    """Greedy shortest generating set for dim <= 4 (post-LLL Gram input)."""
    m = len(g)
    bound = max(g[i][i] for i in range(m))
    half = sorted(_ref_enumerate(g, bound), key=lambda t: (t[1], t[0]))
    chosen = []
    for coords, _ in half:
        trial = chosen + [coords]
        # independent iff their integer Gram matrix, which is positive
        # semidefinite, is positive definite: iff its determinant is > 0
        gram = [[sum(x * y for x, y in zip(s, t)) for t in trial] for s in trial]
        if ref_det(_fractions(gram)) > 0:
            chosen = trial
            if len(chosen) == m:
                break
    v = tuple(tuple(Fraction(chosen[j][i]) for j in range(m)) for i in range(m))
    if abs(ref_det(_fractions(v))) != 1:
        # cannot happen for m <= 4: minima vectors generate the lattice
        raise LiespecError("successive-minima vectors failed to generate")
    return linalg.matmul(linalg.transpose(v), linalg.matmul(g, v)), v


# both are pure, and memoized so that a test can afford every pair of a
# few hundred lattices


@lru_cache(maxsize=None)
def _ref_reduced_gram(g, m):
    g1, _ = ref_lll_gram(g)
    if m <= 4:
        g1, _ = _ref_minima_transform(g1)
    return g1


@lru_cache(maxsize=None)
def _ref_norm_buckets(gram, bound):
    buckets = {}
    for coords, value in _ref_enumerate(gram, bound):
        for vec in (coords, tuple(-c for c in coords)):
            buckets.setdefault(value, []).append(vec)
    return buckets


def ref_congruent(a: Lattice, b: Lattice) -> bool:
    """Decide whether two lattices are isometric, exactly."""
    if a.dim != b.dim:
        raise DomainError("congruence needs equal dimensions")
    m = a.dim
    if m > MAX_DIM:
        raise UnsupportedDimensionError(
            f"congruence implemented for dim <= {MAX_DIM}"
        )
    if a.det_gram != b.det_gram:
        return False

    g1 = _ref_reduced_gram(a.gram, m)
    g2 = b.gram
    bound = max(g1[i][i] for i in range(m))

    buckets1 = _ref_norm_buckets(g1, bound)
    buckets2 = _ref_norm_buckets(g2, bound)
    counts1 = sorted((v, len(vs)) for v, vs in buckets1.items())
    counts2 = sorted((v, len(vs)) for v, vs in buckets2.items())
    if counts1 != counts2:
        return False

    g2_rows = g2

    def inner(u, v):
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = g2_rows[i]
                total += ui * sum(row[j] * v[j] for j in range(m) if v[j])
        return total

    images = [None] * m

    def assign(i):
        if i == m:
            return True
        for w in buckets2.get(g1[i][i], ()):
            ok = True
            for j in range(i):
                if inner(images[j], w) != g1[i][j]:
                    ok = False
                    break
            if ok:
                images[i] = w
                if assign(i + 1):
                    return True
        images[i] = None
        return False

    return assign(0)


def ref_torus_search(values, n: int, lam_min, vol_min) -> list:
    """The torus search that builds each candidate with ``Lattice.from_gram``
    and drops the congruent ones with ``ref_congruent``."""
    n = exact_int(n)
    if n < 1:
        raise DomainError("dimension must be positive")
    if n > 4:
        raise UnsupportedDimensionError(
            "torus search is guaranteed finite only up to dimension 4"
        )
    lam_min, vol_min = rat(lam_min), rat(vol_min)
    if lam_min <= 0 or vol_min <= 0:
        raise DomainError("lower bounds must be positive")
    vals = sorted({rat(v) for v in values})
    if not vals:
        return []
    pairs = list(itertools.combinations(range(n), 2))
    kept = []
    for diag in itertools.product(vals, repeat=n):
        for off in itertools.product(vals, repeat=len(pairs)):
            q = [[Fraction(0)] * n for _ in range(n)]
            for j in range(n):
                q[j][j] = diag[j]
            for (j, k), c in zip(pairs, off):
                q[j][k] = q[k][j] = (c - diag[j] - diag[k]) / 2
            try:
                dual_torus = Lattice.from_gram(q)
            except DomainError:  # not positive definite
                continue
            if dual_torus.det_gram * vol_min**2 > 1:
                continue
            if systole(dual_torus) < lam_min:
                continue
            torus = dual(dual_torus)
            if any(ref_congruent(torus, seen) for seen in kept):
                continue
            kept.append(torus)
    return kept


# Reference root data: positive roots by root strings, the hand-typed -w0
# diagram involutions and coroots by beta^vee = 2 beta / (beta, beta) in
# Fractions.  None of it reflects in the Weyl group.


def ref_positive_roots(cartan):
    """All positive roots as (fund_coords, root_coords) pairs, by height."""
    n = len(cartan)
    roots = {}
    layer = []
    for i in range(n):
        rc = tuple(1 if k == i else 0 for k in range(n))
        roots[rc] = cartan[i]
        layer.append(rc)
    while layer:
        nxt = []
        for rc in layer:
            fund = roots[rc]
            for j in range(n):
                # length p of the backward alpha_j-string through this root
                p = 0
                back = list(rc)
                while True:
                    back[j] -= 1
                    if back[j] < 0 or tuple(back) not in roots:
                        break
                    p += 1
                if p - fund[j] >= 1:
                    up = list(rc)
                    up[j] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots[up] = tuple(
                            f + c for f, c in zip(fund, cartan[j])
                        )
                        nxt.append(up)
        layer = nxt
    out = [(roots[rc], rc) for rc in roots]
    out.sort(key=lambda fr: (sum(fr[1]), fr[1]))
    return out


def pos_roots_rootc(rs):
    """The positive roots of ``rs`` in simple-root coordinates, in the
    order of ``rs.pos_roots_fund``."""
    return tuple(r for _, r in ref_positive_roots(rs.cartan))


def ref_minus_w0_perm(family: str, n: int):
    perm = list(range(n))
    if family == "A":
        perm = list(reversed(perm))
    elif family == "D" and n % 2 == 1:
        perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
    elif family == "E" and n == 6:
        perm[0], perm[5] = perm[5], perm[0]
        perm[2], perm[4] = perm[4], perm[2]
    return tuple(perm)


def ref_coroots(rs):
    """Positive coroots in simple-coroot coordinates, in root order."""
    d = fraction_tables(rs)[0]
    coroots = []
    for f, rc in ref_positive_roots(rs.cartan):
        # (lambda, beta) = vec . lambda and beta^vee = 2 beta / (beta, beta)
        vec = [rc[k] * d[k] for k in range(rs.rank)]
        beta_sq = sum(v * b for v, b in zip(vec, f))
        co = [2 * x / beta_sq for x in vec]
        if any(x.denominator != 1 for x in co):
            raise DomainError("coroot is not integral")
        coroots.append(tuple(int(x) for x in co))
    return tuple(coroots)


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
    theta = pos_roots_rootc(rs)[rs.pos_roots_fund.index(rs.highest_root)]
    theta_sq = sum(
        theta[i] * theta[j] * cartan[i][j] * d[j]
        for i in range(n)
        for j in range(n)
    )
    d = tuple(x * Fraction(2) / theta_sq for x in d)
    cinv = ref_inverse(_fractions(cartan))
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


@lru_cache(maxsize=None)
def _root_ip_vectors(rs):
    d = fraction_tables(rs)[0]
    return tuple(
        tuple(rc[k] * d[k] for k in range(rs.rank))
        for rc in pos_roots_rootc(rs)
    )


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
        den *= _pairing(vec, (1,) * rs.rank)  # rho
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
    cinv_t = linalg.transpose(ref_inverse(_fractions(rs.cartan)))
    # the simple-root coordinates of lam - mu, times the least common
    # denominator q of the inverse Cartan matrix, so the cone test is on ints
    q = math.lcm(*(x.denominator for row in cinv_t for x in row))
    rows = [[int(x * q) for x in row] for row in cinv_t]
    out = []
    for mu in itertools.product(*box):
        diff = [a - b for a, b in zip(lam, mu)]
        height = 0
        for row in rows:
            c = sum(x * d for x, d in zip(row, diff))
            if c < 0 or c % q:
                break
            height += c
        else:
            out.append((mu, height // q))
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
    cinv_t = linalg.transpose(ref_inverse(_fractions(rs.cartan)))

    def in_cone(nu):
        diff = tuple(Fraction(a - b) for a, b in zip(lam, nu))
        coeffs = matvec(cinv_t, diff)
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


# Kostant's multiplicity formula (Humphreys, Introduction to Lie Algebras
# and Representation Theory, 24.2):
#     m_lambda(mu) = sum_{w in W} det w P(w(lambda + rho) - (mu + rho)),
# P the partition function of the positive roots.  W is taken as the orbit
# of the regular lambda + rho, each point signed by the parity of the
# simple reflections that reach it; the roots are the root strings' and
# the coordinates Fractions.  No Freudenthal, no chamber walk.


@lru_cache(maxsize=None)
def _partitions(roots: tuple, gamma: tuple) -> int:
    """The number of ways to write gamma, in simple-root coordinates, as a
    sum of the given positive roots with repetition."""
    if not roots:
        return int(not any(gamma))
    first, rest = roots[0], roots[1:]
    total = 0
    while min(gamma) >= 0:
        total += _partitions(rest, gamma)
        gamma = tuple(g - b for g, b in zip(gamma, first))
    return total


def _signed_orbit(cartan, v) -> dict:
    """{w v: det w} for a regular v, closing under the simple reflections
    v - v_j alpha_j."""
    signs = {v: 1}
    stack = [v]
    while stack:
        u = stack.pop()
        for j, row in enumerate(cartan):
            w = tuple(x - u[j] * a for x, a in zip(u, row))
            if w not in signs:
                signs[w] = -signs[u]
                stack.append(w)
    return signs


def kostant_character(rs, lam) -> tuple:
    """((mu, mult), ...) over the dominant weights of V_lam, sorted, each
    multiplicity by Kostant's formula.  The candidates are every dominant
    mu with mu_j^2 <omega_j, omega_j> <= <lam, lam>, a box that holds every
    dominant weight of V_lam (<mu, mu> <= <lam, lam>, and the fundamental
    weights pair nonnegatively)."""
    roots = tuple(rc for _, rc in ref_positive_roots(rs.cartan))
    cinv_t = tuple(zip(*ref_inverse(_fractions(rs.cartan))))
    orbit = _signed_orbit(rs.cartan, tuple(x + 1 for x in lam))
    fund_form = fraction_tables(rs)[1]
    lam_sq = ref_ip_norm(rs, lam, lam)
    box = [
        range(_floor_sqrt(lam_sq / fund_form[j][j]) + 1)
        for j in range(rs.rank)
    ]
    out = []
    for mu in itertools.product(*box):
        mult = 0
        for x, sign in orbit.items():
            diff = tuple(a - b - 1 for a, b in zip(x, mu))
            gamma = matvec(cinv_t, diff)
            if all(c.denominator == 1 for c in gamma):
                mult += sign * _partitions(roots, tuple(map(int, gamma)))
        if mult:
            out.append((mu, mult))
    return tuple(out)


def kostant_branch(emb: EmbeddingSpec, lam) -> tuple:
    """((kappa, mult), ...) sorted by kappa: the branching of V_lam to K.
    ``kostant_character`` is expanded over the W-orbits that the simple
    reflections of ``_signed_orbit`` close, restricted weight by weight
    with ``ref_restrict_weight``, and decomposed by Racah-Speiser: the
    K-type kappa occurs sum det(w) m_res(w(kappa + rho) - rho) times, over
    w in W_K, the product of the factors' signed orbits of kappa + rho."""
    rs = emb.ambient
    restricted = Counter()
    for mu, mult in kostant_character(rs, lam):
        for nu in _signed_orbit(rs.cartan, mu):  # its keys are mu's orbit
            restricted[ref_restrict_weight(emb, nu)] += mult
    out = []
    for kappa in sorted(restricted):
        if not all(map(is_dominant, kappa)):
            continue
        orbits = [
            _signed_orbit(f.cartan, tuple(x + 1 for x in part)).items()
            for f, part in zip(emb.factors, kappa)
        ]
        mult = 0
        for combo in itertools.product(*orbits):
            shifted = tuple(tuple(x - 1 for x in v) for v, _ in combo)
            sign = math.prod(s for _, s in combo)
            mult += sign * restricted.get(shifted, 0)
        if mult:
            out.append((kappa, mult))
    return tuple(out)


# Principal A1 closed form (Kostant, Amer. J. Math. 81, 1959): the
# principal three-dimensional subalgebra has Cartan element 2 rho^vee, and
# the q-character of V_lambda along it is Weyl's principal specialization
#     prod_{beta > 0} (1 - q^<lambda + rho, beta^vee>) / (1 - q^<rho, beta^vee>),
# whose q^h coefficient counts the weights nu with <lambda - nu, rho^vee> = h.
# Differencing it gives the SL2 types.  No Freudenthal, no peel.


def principal_a1_row(rs):
    """The restriction row of the principal A1: 2 rho^vee, the sum of the
    positive coroots, in simple-coroot coordinates."""
    return tuple(sum(col) for col in zip(*ref_coroots(rs)))


def principal_a1_branching(rs, lam) -> dict:
    """{((N - 2h,),): c_h - c_(h-1)} over 0 <= h <= N/2, nonzero only,
    where c_h is the q^h coefficient above and N = <lambda, 2 rho^vee>."""
    coroots = ref_coroots(rs)
    poly = [1]
    for co in coroots:
        # multiply by 1 - q^a, top coefficient first
        a = sum(c * (x + 1) for c, x in zip(co, lam))
        poly += [0] * a
        for k in range(len(poly) - 1, a - 1, -1):
            poly[k] -= poly[k - a]
    for co in coroots:
        # divide by 1 - q^b by prefix sums; intermediate coefficients may
        # be negative and are kept
        b = sum(co)
        for k in range(b, len(poly)):
            poly[k] += poly[k - b]
        if any(poly[len(poly) - b :]):
            raise AssertionError("q-dimension division left a remainder")
        del poly[len(poly) - b :]
    n = sum(r * x for r, x in zip(principal_a1_row(rs), lam))
    if len(poly) != n + 1:
        raise AssertionError("q-dimension has the wrong degree")
    out = {}
    for h in range(n // 2 + 1):
        mult = poly[h] - (poly[h - 1] if h else 0)
        if mult:
            out[((n - 2 * h,),)] = mult
    return out


# Reference branching: the restriction as a Fraction matrix-vector product,
# and a peel that takes the maximal surviving dominant tuple on every step
# and subtracts the full product weight diagram of that K-type.


@lru_cache(maxsize=None)
def ref_tensor(rs, a: tuple, b: tuple) -> tuple:
    """((kappa, c), ...) with V_a (x) V_b = sum c V_kappa, by Brauer-Klimyk
    on weight tuples: each weight mu of V_b adds its multiplicity, signed
    by w, at kappa = w(a + mu + rho) - rho, unless a zero coordinate puts
    it on a wall."""
    out = {}
    for mu, mult in weight_diagram(rs, b):
        dot = _ref_dot(rs, tuple(map(add, a, mu)))
        if dot is not None:
            kappa, sign = dot
            out[kappa] = out.get(kappa, 0) + sign * mult
    return tuple(sorted(kc for kc in out.items() if kc[1]))


def _ref_dot(rs, nu: tuple):
    """(kappa, det w) with kappa = w(nu + rho) - rho dominant, or None when
    nu + rho lies on a wall, that is when its dominant representative has
    a zero coordinate."""
    if min(nu) >= 0:
        return nu, 1  # nu + rho is already strictly dominant
    v, sign = _chamber(rs.cartan, [x + 1 for x in nu])
    return None if 0 in v else (tuple([x - 1 for x in v]), sign)


def ref_restrict_weight(emb: EmbeddingSpec, weight):
    image = matvec(
        emb.restriction, tuple(Fraction(x) for x in weight)
    )
    if any(x.denominator != 1 for x in image):
        raise MalformedEmbeddingError(
            f"weight {tuple(weight)} restricts to non-integer coordinates"
        )
    parts = []
    at = 0
    for f in emb.factors:
        parts.append(tuple(int(x) for x in image[at : at + f.rank]))
        at += f.rank
    return tuple(parts)


def _tuple_casimir(emb: EmbeddingSpec, tup) -> Fraction:
    return sum(
        (casimir(f, w) for f, w in zip(emb.factors, tup)), Fraction(0)
    )


def _peel_key(emb: EmbeddingSpec, tup):
    concat = tuple(x for part in tup for x in part)
    return (_tuple_casimir(emb, tup), sum(concat), concat)


@lru_cache(maxsize=None)
def ref_branch(emb: EmbeddingSpec, sigma) -> BranchingResult:
    lam = check_weight(emb.ambient, sigma)
    if not is_dominant(lam):
        raise DomainError("branch expects a dominant weight")
    if not emb.factors:
        return BranchingResult(
            source=lam, terms=(((), weyl_dim(emb.ambient, lam)),)
        )

    residue = {}
    for nu, mult in weight_diagram(emb.ambient, lam):
        key = ref_restrict_weight(emb, nu)
        residue[key] = residue.get(key, 0) + mult

    terms = {}
    while residue:
        candidates = [
            t for t in residue if all(is_dominant(part) for part in t)
        ]
        if not candidates:
            raise MalformedEmbeddingError(
                "residual character has no dominant weight tuple"
            )
        top = max(candidates, key=lambda t: _peel_key(emb, t))
        mult = residue[top]
        if mult < 0:
            raise MalformedEmbeddingError("negative residue while peeling")
        diagrams = [
            weight_diagram(f, part)
            for f, part in zip(emb.factors, top)
        ]
        for combo in itertools.product(*diagrams):
            key = tuple(w for w, _ in combo)
            count = mult
            for _, m in combo:
                count *= m
            value = residue.get(key, 0) - count
            if value < 0:
                raise MalformedEmbeddingError("negative residue while peeling")
            if value:
                residue[key] = value
            else:
                residue.pop(key, None)
        terms[top] = mult

    dim_total = sum(
        m * _product_dim(emb, t) for t, m in terms.items()
    )
    if dim_total != weyl_dim(emb.ambient, lam):
        raise MalformedEmbeddingError("branching lost dimensions")
    return BranchingResult(source=lam, terms=tuple(sorted(terms.items())))


def _product_dim(emb: EmbeddingSpec, tup) -> int:
    out = 1
    for f, part in zip(emb.factors, tup):
        out *= weyl_dim(f, part)
    return out


def ref_spherical_mult(emb: EmbeddingSpec, sigma) -> int:
    """Multiplicity of the trivial K-type in V_sigma restricted to K."""
    trivial = tuple(tuple(0 for _ in range(f.rank)) for f in emb.factors)
    return dict(ref_branch(emb, sigma).terms).get(trivial, 0)


def ref_contragredient(rs, lam) -> tuple:
    """Highest weight of the dual of V_lam: the dominant weight in the Weyl
    orbit of -lam, with no use of the -w0 tables."""
    return dominant_rep(rs, tuple(-x for x in lam))


# Reference terms: every (sigma, tau) rebuilt in Fractions for each metric,
# the closed-form eigenvalue of one pair, and the inverse of the map from
# fiber scales to beta factors.


def ref_natred_terms(m: NatRedMetric, cutoff):
    cutoff = rat(cutoff)
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    ratios = killing_ratio(m.emb)
    # eigenvalue >= c(sigma) * min(1, t/max t_i) / t
    shrink = min(
        [Fraction(1)] + [m.base_scale / x for x in m.fiber_scales]
    )
    budget = cutoff * m.base_scale / shrink
    out = []
    for lam in dominant_weights_up_to(m.group, budget):
        c_lam = casimir(m.group, lam)
        dim_lam = weyl_dim(m.group, lam)
        for tup, mult in ref_branch(m.emb, lam).terms:
            tau = contragredient_tuple(m.emb, tup)
            fiber_amb = Fraction(0)
            correction = Fraction(0)
            dim_tau = 1
            for f, part, t_i, j in zip(
                m.emb.factors, tau, m.fiber_scales, ratios
            ):
                c_part = casimir(f, part)
                fiber_amb += c_part / j
                correction += (m.base_scale / t_i - 1) * c_part / j
                dim_tau *= weyl_dim(f, part)
            # horizontal Laplacian positivity; certifies the budget
            if fiber_amb > c_lam:
                raise CertificationError(
                    f"horizontal positivity fails at sigma={lam}, tau={tau}"
                )
            eig = (c_lam + correction) / m.base_scale
            if eig > cutoff:
                continue
            out.append((lam, tau, dim_lam * mult * dim_tau, eig))
    return out


def ref_term_catalogue(emb: EmbeddingSpec, budget):
    """(den, rows) of ``term_catalogue(emb, budget)``, rebuilt in
    Fractions from ``ref_branch``, ``ref_casimir`` and ``ref_weyl_dim``.

    Each Killing ratio j_i is the trace of the K_i Casimir on the adjoint
    of G over dim k_i, read off the adjoint's reference branching; each
    fiber Casimir is read at tau, the contragredient of the branch label
    by the hand-typed -w0 involutions, where the catalogue reads the label.
    """
    group, factors = emb.ambient, emb.factors

    def dim(tup):
        return math.prod(map(ref_weyl_dim, factors, tup))

    adjoint = ref_branch(emb, group.highest_root).terms
    ratios = [
        sum(m * dim(t) * ref_casimir(f, t[i]) for t, m in adjoint) / f.dim_g
        for i, f in enumerate(factors)
    ]
    den = math.lcm(
        group.casimir_den,
        *(f.casimir_den * j.numerator for f, j in zip(factors, ratios)),
    )
    rows = Counter()
    for lam in dominant_weights_up_to(group, budget):
        c_lam = ref_casimir(group, lam)
        for tup, mult in ref_branch(emb, lam).terms:
            tau = tuple(
                tuple(part[k] for k in ref_minus_w0_perm(f.family, f.rank))
                for f, part in zip(factors, tup)
            )
            fibers = [
                ref_casimir(f, t) / j for f, t, j in zip(factors, tau, ratios)
            ]
            g = [c_lam - sum(fibers)] + fibers
            if g[0] < 0:
                raise CertificationError(
                    f"horizontal positivity fails at sigma={lam}, tau={tau}"
                )
            if any((x * den).denominator != 1 for x in g):
                raise AssertionError("den does not clear a row")
            row = tuple(int(x * den) for x in g)
            rows[row] += ref_weyl_dim(group, lam) * mult * dim(tau)
    return den, tuple(rows.items())


def natred_eigenvalue(m: NatRedMetric, sigma, tau_tuple) -> Fraction:
    """Closed-form eigenvalue for one (sigma, tau) pair, evaluated directly."""
    lam = check_weight(m.group, sigma)
    ratios = killing_ratio(m.emb)
    total = casimir(m.group, lam)
    for f, tau, t_i, j in zip(
        m.emb.factors, tau_tuple, m.fiber_scales, ratios
    ):
        total += (m.base_scale / t_i - 1) * casimir(f, tau) / j
    return total / m.base_scale


def f_map_inverse(coeffs, shift) -> tuple:
    """Exact inverse of a_i -> a_i*b/(b - a_i), the map that takes fiber
    scales to ``beta_factors`` at the shift b = t: a_i = v_i*b/(b + v_i)."""
    b = rat(shift)
    if b <= 0:
        raise InadmissibleMetricError("shift must be positive")
    return tuple(v * b / (b + v) for v in coeffs)


def ref_natred_spectrum(m: NatRedMetric, cutoff):
    cutoff = rat(cutoff)
    pairs = [
        (eig, mult) for _, _, mult, eig in ref_natred_terms(m, cutoff)
    ]
    return _table_from_pairs(pairs, cutoff)


def _table_from_pairs(pairs, cutoff) -> SpectrumTable:
    """Aggregate (eigenvalue, multiplicity) contributions keyed by Fraction."""
    acc = {}
    for eig, mult in pairs:
        acc[eig] = acc.get(eig, 0) + mult
    entries = [(e, m) for e, m in sorted(acc.items()) if m]
    return ref_table("raw", cutoff, entries)


def ref_table(unit, cutoff, entries) -> SpectrumTable:
    """Table of sorted (Fraction eigenvalue, multiplicity) entries, over the
    lcm of the eigenvalues' denominators, which is already the reduced
    scale."""
    scale = math.lcm(*(e.denominator for e, _ in entries))
    return SpectrumTable(
        unit,
        rat(cutoff),
        scale,
        tuple(e.numerator * (scale // e.denominator) for e, _ in entries),
        tuple(m for _, m in entries),
    )


def ref_table_json(t: SpectrumTable) -> str:
    """The canonical JSON of a table's object, each eigenvalue formatted
    by ``rational.fmt`` from its Fraction entry."""
    obj = {
        "unit": t.unit,
        "cutoff": fmt(t.cutoff),
        "entries": [[fmt(e), str(m)] for e, m in t.entries],
        "complete": t.complete,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def ref_table_distance(a: SpectrumTable, b: SpectrumTable) -> int:
    """Symmetric-difference count of two tables' Fraction-keyed entries."""
    ca, cb = Counter(dict(a.entries)), Counter(dict(b.entries))
    return sum(((ca - cb) + (cb - ca)).values())


def ref_isolation_scan(m: NatRedMetric, radius, steps: int, cutoff) -> dict:
    """The grid scan with each point's table rebuilt by the reference."""
    radius = rat(radius)
    if not 0 <= radius < 1:
        raise DomainError("radius must lie in [0, 1)")
    steps = int(steps)
    if steps < 1:
        raise DomainError("steps must be at least 1")
    cutoff = rat(cutoff)
    mult = _grid_multipliers(radius, steps)
    center_scales = (m.base_scale,) + m.fiber_scales
    fiber_fills_group = (
        sum(f.dim_g for f in m.emb.factors) == m.group.dim_g
    )
    center_table = ref_natred_spectrum(m, cutoff)

    neighbors = []
    skipped_inadmissible = []
    skipped_equivalent = 0
    compared = 0
    min_distance = None
    for combo in itertools.product(mult, repeat=len(center_scales)):
        scales = tuple(u * s for u, s in zip(combo, center_scales))
        if scales == center_scales:
            continue
        base, fibers = scales[0], scales[1:]
        if any(x == base for x in fibers):
            skipped_inadmissible.append(
                {"t": fmt(base), "t_i": [fmt(x) for x in fibers]}
            )
            continue
        if fiber_fills_group and fibers == m.fiber_scales:
            skipped_equivalent += 1
            continue
        point = NatRedMetric(
            emb=m.emb,
            base_scale=base,
            fiber_scales=fibers,
        )
        table = ref_natred_spectrum(point, cutoff)
        compared += 1
        if table.entries == center_table.entries:
            neighbors.append(
                {"t": fmt(base), "t_i": [fmt(x) for x in fibers]}
            )
        else:
            d = ref_table_distance(table, center_table)
            if min_distance is None or d < min_distance:
                min_distance = d
    return {
        "center": m.to_json_dict(),
        "grid": {
            "radius": fmt(radius),
            "steps": steps,
            "axes": len(center_scales),
            "points": len(mult) ** len(center_scales),
            "compared": compared,
            "skipped_inadmissible": skipped_inadmissible,
            "skipped_equivalent": skipped_equivalent,
        },
        "cutoff": fmt(cutoff),
        "isospectral_neighbors": neighbors,
        "min_table_distance": min_distance,
    }


# Reference bi-invariant and normal quotient spectra: eigenvalues summed as
# Fraction Casimirs over the scales and tabulated by Fraction keys.


def ref_center_admissible(gs: GroupSpec, lam_tuple) -> bool:
    """True iff every listed central element acts trivially on the
    irreducible with the given per-factor highest weights."""
    if len(lam_tuple) != len(gs.factors):
        raise DomainError("weight tuple length != number of factors")
    parts = tuple(
        check_dominant(f, w, "center_admissible expects dominant weights")
        for f, w in zip(gs.factors, lam_tuple)
    )
    for z in gs.gamma:
        total = Fraction(0)
        for lam, part in zip(parts, z):
            total += sum(
                Fraction(a) * Fraction(b) for a, b in zip(lam, part)
            )
        if total.denominator != 1:
            return False
    return True


def ref_admissible_tuples(gs: GroupSpec, cutoff):
    """Gamma-admissible dominant tuples with Sum c_i/t_i <= cutoff, each
    paired with that eigenvalue."""
    cutoff = rat(cutoff)
    per_factor = []
    for f, t in zip(gs.factors, gs.scales):
        lams = dominant_weights_up_to(f, cutoff * t)
        per_factor.append(tuple((lam, casimir(f, lam) / t) for lam in lams))
    out = []
    for combo in itertools.product(*per_factor):
        eig = sum((c for _, c in combo), Fraction(0))
        if eig > cutoff:
            continue
        tup = tuple(lam for lam, _ in combo)
        if ref_center_admissible(gs, tup):
            out.append((tup, eig))
    return out


def ref_biinvariant_spectrum(gs: GroupSpec, cutoff) -> SpectrumTable:
    pairs = []
    for tup, eig in ref_admissible_tuples(gs, cutoff):
        dim = 1
        for f, lam in zip(gs.factors, tup):
            dim *= weyl_dim(f, lam)
        pairs.append((eig, dim * dim))
    return _table_from_pairs(pairs, cutoff)


def ref_normal_quotient_spectrum(emb: EmbeddingSpec, t, cutoff):
    t, cutoff = rat(t), rat(cutoff)
    pairs = []
    for lam in dominant_weights_up_to(emb.ambient, cutoff * t):
        fixed = ref_spherical_mult(emb, lam)
        if fixed:
            eig = casimir(emb.ambient, lam) / t
            pairs.append((eig, weyl_dim(emb.ambient, lam) * fixed))
    return _table_from_pairs(pairs, cutoff)
