"""Weights and characters of irreducible representations.

All three run on the integer tables of ``rootdata``:

* ``weyl_dim`` -- the one Weyl dimension formula (Humphreys, Introduction
  to Lie Algebras and Representation Theory, 24.3): the pairings (lambda +
  rho, beta^vee) are dot products with ``coroots``, and ``_weyl_quotient``,
  which the walk below shares, divides their product exactly by
  ``weyl_den`` (a remainder or a non-positive quotient raises DomainError);
  ``_weyl_dim`` is it on a weight checked already;
* ``weight_diagram`` -- the full character of V_lambda, as sorted
  (weight, multiplicity) pairs like ``dominant_character``, its weight
  checked once; ``_weight_diagram`` is it on a weight checked already, for
  the weights that ``branching`` makes.  Its dominant weights are the
  dominant mu with lambda - mu in the root cone (ibid., 21.3).  In the
  dominance order on dominant weights each covering pair
  differs by a positive root (Stembridge, The partial order of dominant
  weights, Adv. Math. 136 (1998)), so subtracting positive roots from
  lambda, through dominant weights only, reaches every one of them.  Each
  has smaller Casimir than every dominant weight above it (Humphreys
  13.4), so Freudenthal's recursion (ibid., 22.3) takes them in descending
  Casimir.  casimir_num is |lam + rho|^2 - |rho|^2 times form_den, so the
  recursion's denominator is casimir_num(lambda) - casimir_num(mu).
  Strings are unbroken (ibid., 21.3), so each mu + k beta stops at the
  first k whose dominant representative, from ``rootdata._chamber``, has
  no multiplicity.  Weyl orbits fill in the rest;
* ``_dominant_casimirs`` -- (weight, casimir_num, weyl_dim) over all
  dominant weights with Casimir at most a given budget, for the two
  callers that read its Weyl dimensions: ``branching._branched`` and the
  bi-invariant fold of ``groups``.  The weights are enumerable because
  the Casimir is strictly increasing in every fundamental coordinate.  The
  walk carries ``casimir_num`` C, F . lam (F = ``form``) and the coroot
  pairings (lam + rho, beta^vee): raising lam_j by one adds
  2 (F . lam)_j + F_jj + 2 sum_k F_jk to C, row j of the symmetric F to
  F . lam and column j of ``coroots`` to the pairings, so each weight's
  Weyl dimension is ``_weyl_quotient`` of its pairings, as in
  ``weyl_dim``.  On the last coordinate's line every weight is a leaf
  and only (F . lam)_n moves C, so that loop emits the weights itself and
  carries one number in place of F . lam.

  The pairings are packed into one int, each in a fixed-width unsigned
  field, so a step adds one packed column and a leaf reads the fields back
  through a ``memoryview`` cast.  The width is fixed per walk from a bound:
  C grows in every coordinate, so C(lam) >= C(lam_j omega_j) and each
  walked lam has lam_j <= m_j, the largest m with C(m omega_j) =
  F_jj m^2 + 2 m sum_k F_jk within the budget; coroot coefficients are
  nonnegative and the highest coroot theta^vee has the largest of each, so
  no pairing exceeds sum_j theta^vee_j (m_j + 1).  No field overflows into
  the next, and ``prod`` does not care in which order the platform's byte
  order reads them.  A budget whose bound needs more than 64 bits raises
  DomainError before the walk starts; no walk that could finish comes
  near it.
"""

import sys
from functools import lru_cache
from math import floor, isqrt, prod
from operator import add, mul, sub

from .errors import DomainError
from .rational import rat
from .rootdata import (
    RootSystemData, _chamber, _orbit, casimir_num, check_dominant
)


def weyl_dim(rs: RootSystemData, weight) -> int:
    """dim V_lambda by the Weyl dimension formula."""
    lam = check_dominant(rs, weight, "weyl_dim expects a dominant weight")
    return _weyl_dim(rs, lam)


def _weyl_dim(rs: RootSystemData, lam: tuple) -> int:
    """``weyl_dim`` of a checked dominant weight."""
    shifted = tuple(x + 1 for x in lam)
    pairs = [sum(map(mul, co, shifted)) for co in rs.coroots]
    return _weyl_quotient(pairs, rs.weyl_den)


def _weyl_quotient(pairs, den) -> int:
    """prod(pairs) / den for the pairings (lambda + rho, beta^vee), exactly:
    a remainder, or a quotient that is not positive, raises DomainError."""
    dim, rest = divmod(prod(pairs), den)
    if rest or dim <= 0:
        raise DomainError("Weyl dimension did not come out a positive integer")
    return dim


def dominant_character(rs: RootSystemData, weight) -> tuple:
    """((mu, mult), ...) over dominant weights of V_weight, Freudenthal."""
    lam = check_dominant(
        rs, weight, "character expects a dominant highest weight"
    )
    return _dominant_character(rs, lam)


@lru_cache(maxsize=None)
def _dominant_character(rs: RootSystemData, lam: tuple) -> tuple:
    """``dominant_character`` of a checked dominant weight, cached per type.

    Inner products are taken times form_den, which cancels in the ratio:
    (nu, beta) is nu . (F . beta), and the denominator is a difference of
    Casimir numerators (module docstring).
    """
    cartan, roots = rs.cartan, rs.pos_roots_fund
    strings = [
        (beta, [sum(map(mul, row, beta)) for row in rs.form])
        for beta in roots
    ]
    # the dominant weights below lam, reached from lam by subtracting
    # positive roots through dominant weights (module docstring)
    below, stack = {lam}, [lam]
    while stack:
        mu = stack.pop()
        for beta in roots:
            nu = tuple(map(sub, mu, beta))
            if min(nu) >= 0 and nu not in below:
                below.add(nu)
                stack.append(nu)
    top = casimir_num(rs, lam)
    mults = {}
    # descending Casimir: lam comes first, and every dominant weight above
    # mu comes before mu
    for num, mu in sorted(
        ((casimir_num(rs, mu), mu) for mu in below), reverse=True
    ):
        if mu == lam:
            mults[mu] = 1
            continue
        total = 0
        for beta, vec in strings:
            # nu's dominant representative is higher than mu, so its
            # multiplicity is already known; the string ends at a zero
            nu = tuple(map(add, mu, beta))
            while mult_nu := mults.get(_chamber(cartan, nu)[0]):
                total += mult_nu * sum(map(mul, vec, nu))
                nu = tuple(map(add, nu, beta))
        value, rest = divmod(2 * total, top - num)
        if rest or value <= 0:
            raise DomainError("Freudenthal recursion produced a non-integer")
        mults[mu] = value
    return tuple(sorted(mults.items()))


def weight_diagram(rs: RootSystemData, weight) -> tuple:
    """((mu, mult), ...) over every weight of V_weight, sorted: the dominant
    character expanded over Weyl orbits, its total checked against the
    Weyl dimension."""
    lam = check_dominant(
        rs, weight, "character expects a dominant highest weight"
    )
    return _weight_diagram(rs, lam)


def _weight_diagram(rs: RootSystemData, lam: tuple) -> tuple:
    """``weight_diagram`` of a checked dominant weight."""
    full = {}
    for mu, mult in _dominant_character(rs, lam):
        for nu in _orbit(rs.cartan, mu):
            full[nu] = mult
    if sum(full.values()) != _weyl_dim(rs, lam):
        raise DomainError("character total does not match the Weyl dimension")
    return tuple(sorted(full.items()))


def _dominant_casimirs(rs: RootSystemData, cas_max) -> list:
    """(weight, casimir_num, weyl_dim) over every dominant weight with
    casimir <= cas_max, in graded-lex order.

    The walk carries the Casimir numerator, F . lam and the packed coroot
    pairings (module docstring); each is updated only on a step that the
    budget accepts.
    """
    cas_max = rat(cas_max)
    limit = floor(cas_max * rs.casimir_den)
    if limit < 0:
        return []
    out = []
    n, form, den = rs.rank, rs.form, rs.weyl_den
    step = [form[j][j] + 2 * sum(form[j]) for j in range(n)]
    code, width = _pairing_field(rs, limit)
    order, size = sys.byteorder, width * len(rs.coroots)
    # column j of the coroot matrix, packed: what raising lam_j adds to the
    # pairings.  A coefficient (at most 6) is the low byte of its field, so
    # the packed columns are written as bytes in the order the leaves read
    low = 0 if order == "little" else width - 1
    cols = []
    for column in zip(*rs.coroots):
        packed = bytearray(size)
        packed[low::width] = bytes(column)
        cols.append(int.from_bytes(packed, order))
    current, last = [0] * n, n - 1

    def extend(j, cas, f_lam, pairs):
        # cas = casimir_num(current), f_lam = F . current, field k of pairs =
        # (current + rho, beta_k^vee); coordinates past j are 0 here, and
        # cas <= limit
        row, col, inc = form[j], cols[j], step[j]
        if j == last:
            # every weight on the last coordinate's line is a leaf, and of
            # F . current only coordinate j is read: rise is its next step
            rise, twice = 2 * f_lam[j] + inc, 2 * row[j]
            while True:
                fields = memoryview(pairs.to_bytes(size, order)).cast(code)
                out.append((tuple(current), cas, _weyl_quotient(fields, den)))
                cas += rise
                if cas > limit:
                    break
                rise += twice
                pairs += col
                current[j] += 1
            current[j] = 0
            return
        while True:
            extend(j + 1, cas, f_lam, pairs)
            cas += 2 * f_lam[j] + inc
            if cas > limit:
                break
            f_lam = list(map(add, f_lam, row))
            pairs += col
            current[j] += 1
        current[j] = 0

    extend(0, 0, [0] * n, sum(cols))  # (rho, beta^vee) = sum_j beta^vee_j
    out.sort(key=lambda triple: (sum(triple[0]), triple[0]))
    return out


# unsigned native formats a memoryview can be cast to, narrowest first, with
# their widths in bytes
_FIELDS = [(code, memoryview(bytes(8)).cast(code).itemsize) for code in "BHIQ"]


def _pairing_field(rs: RootSystemData, limit):
    """(format code, width in bytes) of the narrowest field that holds every
    coroot pairing (lam + rho, beta^vee) of a weight with casimir_num at
    most ``limit`` >= 0; DomainError when 64 bits do not."""
    bound = 0
    # the highest coroot, the one of greatest height, has every coefficient
    # at least that of any other (Humphreys 10.4, in the dual root system)
    top = max(rs.coroots, key=sum)
    for j, row in enumerate(rs.form):
        # the largest m with casimir_num(m omega_j) = a m^2 + b m <= limit
        a, b = row[j], 2 * sum(row)
        bound += top[j] * ((isqrt(b * b + 4 * a * limit) - b) // (2 * a) + 1)
    for code, width in _FIELDS:
        if bound < 256**width:
            return code, width
    raise DomainError("Casimir budget too large: the walk's coroot pairings "
                      "would not fit in 64 bits")
