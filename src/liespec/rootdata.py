"""Root system data for the simple types A through G.

Weights live in fundamental-weight coordinates: an integer tuple
(lambda_1, ..., lambda_n) means lambda = sum_i lambda_i * omega_i, so the
j-th coordinate is the pairing with the j-th simple coroot.  Rows of the
Cartan matrix are then exactly the simple roots in these coordinates.

Every Lie primitive reads integer tables built once per root system
(Fractions appear only while they are built):

* ``coroots`` -- each positive coroot in simple-coroot coordinates, so
  (lambda, beta^vee) = coroot . lambda; ``weyl_den`` = prod (rho, beta^vee).
  These two are all that the one Weyl dimension formula of ``weights``
  reads;
* ``form`` over ``form_den`` -- the normalized form
  <u, v> = u . form . v / form_den, with <theta, theta> = 2 for the
  highest root theta.

The Killing-dual form <u, v> / (2 h^vee) = u . form . v / casimir_den is
the form induced on weights by the negative Killing form and the one the
Casimir eigenvalue is measured against:

    casimir(lambda) = <lambda, lambda + 2 rho> / (2 h^vee),

a Fraction over ``casimir_den`` = 2 h^vee form_den with the integer
numerator ``casimir_num`` = lambda . form . (lambda + 2 rho).

Everything is derived from the Cartan matrix by simple reflections.
The positive roots are the W-orbits of the simple roots with nonnegative
simple-root coordinates, the coroots are the positive roots of the
transposed Cartan matrix, and -w0 sends omega_k to the dominant weight in
the orbit of -omega_k.  The dual Coxeter number is 1 + <rho, theta>.

The one chamber walk, ``_chamber``, takes a weight to the dominant one in
its orbit, with det w; the -w0 table, the wall rule and the invariance
check of ``branching`` and Freudenthal's strings in ``weights`` read it.
Like ``casimir_num`` and ``_contragredient``, it trusts its input: a
weight is checked once, by ``check_dominant`` at the public door it comes
in by.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import mul

from . import linalg
from .errors import DomainError, InputError
from .frozen import Frozen
from .rational import exact_int, sequence

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _cartan_matrix(family: str, n: int):
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif family == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)  # last simple root is short
    elif family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)  # last simple root is long
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
        for i, j in chain:
            edge(i, j)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


def _symmetrizer(cartan):
    """d_i = <alpha_i, alpha_i>/2 up to overall scale, via graph traversal."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    if any(x is None for x in d):
        raise DomainError("Dynkin diagram is not connected")
    return d


def _reflect(cartan, j, v):
    """s_j(v) in fundamental coordinates: subtract v_j times alpha_j."""
    c = v[j]
    return tuple(x - c * a for x, a in zip(v, cartan[j]))


def _orbit(cartan, v):
    """The Weyl orbit of v, as a set, by closing under simple reflections."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for j in range(len(cartan)):
            w = _reflect(cartan, j, u)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _chamber(cartan, v):
    """(the dominant weight in the Weyl orbit of v, det w) for the w that
    takes v there: reflect in the least coordinate while it is negative.
    v is a tuple or a list; a dominant v comes back as ``tuple(v)``."""
    sign = 1
    while (low := min(v)) < 0:
        v = [x - low * a for x, a in zip(v, cartan[v.index(low)])]
        sign = -sign
    return tuple(v), sign


def _positive_roots(cartan, adj, det):
    """Positive roots as (fund_coords, root_coords) pairs, by height.

    Every root is W-conjugate to a simple root, so the roots are the orbits
    of the Cartan rows; the positive ones have nonnegative simple-root
    coordinates adj . v / det.
    """
    roots = set()
    for row in cartan:
        if row not in roots:
            roots |= _orbit(cartan, row)
    out = []
    for v in roots:
        rc = []
        for row in adj:
            coeff, rest = divmod(sum(map(mul, row, v)), det)
            if rest:
                raise DomainError("non-integral root; bad Cartan data")
            rc.append(coeff)
        if min(rc) >= 0:
            out.append((v, tuple(rc)))
    out.sort(key=lambda fr: (sum(fr[1]), fr[1]))
    return out


class RootSystemData(Frozen):
    """Immutable root-system tables for one simple type.

    Instances are cached singletons per (family, rank); identity equality
    is intentional.
    """

    _fields = (
        "family", "rank", "cartan", "pos_roots_fund", "highest_root",
        "coroots", "weyl_den", "form", "form_den", "casimir_den",
        "dual_coxeter", "dim_g", "minus_w0",
    )

    def __init__(
        self, family, rank, cartan, pos_roots_fund, highest_root, coroots,
        weyl_den, form, form_den, casimir_den, dual_coxeter, dim_g, minus_w0,
    ):
        fields = locals()
        self.__dict__.update((name, fields[name]) for name in self._fields)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __repr__(self):
        return f"RootSystemData({self.name})"


def build(name: str) -> RootSystemData:
    """Construct the root system ``name`` (e.g. "A2", "G2", "E8").

    The result is a cached singleton: equal names (case-insensitively)
    return the identical object, so identity equality is safe downstream.
    """
    if not isinstance(name, str):
        raise InputError(f"a simple type is named by a string, not {name!r}")
    return _build(name.strip().upper())


@lru_cache(maxsize=None)
def _build(name: str) -> RootSystemData:
    if len(name) < 2 or name[0] not in _RANK_RANGE or not name[1:].isdigit():
        raise DomainError(f"unknown simple type {name!r}")
    family, n = name[0], int(name[1:])
    low, high = _RANK_RANGE[family]
    if n < low or (high is not None and n > high):
        raise DomainError(f"rank {n} out of range for family {family}")

    cartan = _cartan_matrix(family, n)
    d = _symmetrizer(cartan)
    adj, det = linalg.adjugate(cartan)
    # C^{-1} = adj / det; adj^T maps a root to det times its root coordinates
    pos = _positive_roots(cartan, linalg.transpose(adj), det)
    fund_list = tuple(f for f, _ in pos)
    # the coroots are the roots of the transposed Cartan matrix, and their
    # simple-root coordinates there are simple-coroot coordinates here
    coroots = tuple(
        r
        for _, r in _positive_roots(linalg.transpose(cartan), adj, det)
    )

    theta_fund, theta_rootc = pos[-1]  # the roots are sorted by height
    if len(pos) > 1 and sum(pos[-2][1]) == sum(theta_rootc):
        raise DomainError("highest root is not unique; bad Cartan data")

    # rescale the symmetrizer so that <theta, theta> = 2
    theta_sq = sum(
        theta_rootc[i] * theta_rootc[j] * cartan[i][j] * d[j]
        for i in range(n)
        for j in range(n)
    )
    factor = Fraction(2) / theta_sq
    d = [x * factor for x in d]

    fund_form = tuple(
        tuple(adj[i][j] * d[j] / det for j in range(n)) for i in range(n)
    )
    if not linalg.is_symmetric(fund_form):
        raise DomainError("fundamental form failed symmetry; bad Cartan data")
    form_den = lcm(*(x.denominator for row in fund_form for x in row))
    form = tuple(tuple(int(x * form_den) for x in row) for row in fund_form)

    rho_theta = sum(theta_rootc[k] * d[k] for k in range(n))
    if rho_theta.denominator != 1:
        raise DomainError("dual Coxeter number is not integral")
    hvee = int(rho_theta) + 1

    # -w0 maps omega_k to the dominant weight in the orbit of -omega_k,
    # which is the fundamental weight omega_perm[k]
    perm = tuple(
        _chamber(cartan, [-int(i == k) for i in range(n)])[0].index(1)
        for k in range(n)
    )

    return RootSystemData(
        family=family,
        rank=n,
        cartan=cartan,
        pos_roots_fund=fund_list,
        highest_root=theta_fund,
        coroots=coroots,
        weyl_den=prod(sum(co) for co in coroots),
        form=form,
        form_den=form_den,
        casimir_den=2 * hvee * form_den,
        dual_coxeter=hvee,
        dim_g=2 * len(fund_list) + n,
        minus_w0=perm,
    )


def check_root_system(value) -> RootSystemData:
    """``value`` itself if it is a ``RootSystemData``, else InputError: a
    type's name is not one (``build`` makes one from a name)."""
    if not isinstance(value, RootSystemData):
        raise InputError(f"a root system comes from build(), not {value!r}")
    return value


def check_weight(rs: RootSystemData, weight) -> tuple:
    """``weight`` as a tuple of the int coordinates of a weight of ``rs``,
    which ``check_root_system`` checks first: the gate of every door that
    takes a weight."""
    check_root_system(rs)
    w = sequence(weight, "a weight is a sequence of coordinates")
    if len(w) != rs.rank:
        raise DomainError(
            f"weight has {len(w)} coordinates, expected {rs.rank}"
        )
    # a bool is an int but not a coordinate: exact_int refuses it
    return tuple(map(exact_int, w))


def check_dominant(rs: RootSystemData, weight, message: str) -> tuple:
    """``check_weight``, then DomainError(message) unless the weight is
    dominant: the one gate of every door that takes a dominant weight."""
    lam = check_weight(rs, weight)
    if min(lam) < 0:
        raise DomainError(message)
    return lam


def casimir_num(rs: RootSystemData, lam: tuple) -> int:
    """Casimir eigenvalue times ``casimir_den`` of a checked dominant lam."""
    shifted = [x + 2 for x in lam]  # lam + 2 rho
    return sum(x * sum(map(mul, row, shifted)) for x, row in zip(lam, rs.form))


def casimir(rs: RootSystemData, weight) -> Fraction:
    """Casimir eigenvalue <lambda, lambda + 2 rho> in Killing-dual units."""
    lam = check_dominant(rs, weight, "casimir expects a dominant weight")
    return Fraction(casimir_num(rs, lam), rs.casimir_den)


def _contragredient(rs: RootSystemData, w: tuple) -> tuple:
    """Highest weight of the dual representation: -w0 applied to the
    checked weight w."""
    return tuple([w[k] for k in rs.minus_w0])
