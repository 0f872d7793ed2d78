"""Branching of irreducibles to an embedded product subgroup.

An embedding of K = K_1 x ... x K_r into a simple G is given by a rational
restriction matrix carrying G-weight coordinates to concatenated K-weight
coordinates (the transpose of the Cartan-subalgebra inclusion); it is held
as an integer matrix over one common denominator, built once per embedding.

A K-weight, a K-type or a restricted weight, is one int: its concatenated
coordinates in fields of ``_WIDTH`` bits, the first coordinate most
significant, so int order is the order of the labels.  Branchings are
held as {key: multiplicity} in key order, and ``branch`` unpacks them to
per-factor labels.  One Brauer-Klimyk kernel, ``_kernel``, serves G's
tensor step, the K-side product and the peel: it multiplies K-types by a
W_K-invariant character, its restricted weights mu each stored as
packed(mu) + H, H the top bit of every field: a K-type a plus it is one
int addition t, and t & H == H says that every coordinate of a + mu is
>= 0, so its term is V_(a + mu) itself, at key t - H.  Any other sum lies
near a wall: its image w(a + mu + rho) - rho with det w, or nothing when
a + mu + rho lies on a wall, is walked once by ``_chamber`` on K's
block-diagonal Cartan matrix and memoized by t.  No field carries into its
neighbour: every restricted weight, and every K-type that a branching
accepts, has coordinates below 2^(W-2) in absolute value, or raises
UnsupportedDimensionError, so every sum stays inside its fields.  The wall
images, and each K-type's label and dimension, are memoized per K, keyed
on its root systems and shared by every embedding of the same K, so no
module-level memo holds an embedding or its branchings.

Restriction is a ring homomorphism R(G) -> R(K), so branching recurses
over the dominant cone: with lam = lam' + omega, omega the fundamental
weight of lam's first nonzero coordinate,

    Res V_lam = Res V_lam' * Res V_omega - sum_{kappa != lam} c_kappa Res V_kappa

where V_lam' (x) V_omega = sum c_kappa V_kappa (``_tensor``: the kernel
on G's own packing, V_lam' its one source K-type, so the field guard
covers G too).  The product is one kernel pass, each K-type of Res V_lam'
against the restricted weights of V_omega, which the peel of omega made.
A step checks that V_lam occurs once, no multiplicity is negative and the
dimensions add up (dim V_lam by ``weights._weyl_dim``, each K-type's from
its parts', which K-types share).  ``branch`` checks the weight it is
given; a step reads, unchecked, only weights that the walk or the memo
made from checked ones.
A step runs only if every branching it reads is memoized: each kappa has
a smaller Casimir than lam, so ``_branched``, which walks and branches the
weights below a Casimir budget for the term catalogue and
``containment_check``, takes them in ascending Casimir and recurses past 0
and the fundamentals.  Other weights, one asked for alone among them, and
steps that fail on malformed data are peeled: the restricted weight diagram is
checked W_K-invariant and run through the same kernel against the trivial
K-type alone.  K-characters decompose uniquely, so the two agree where
both succeed.  Malformed data surfaces as a non-integer image, a
non-invariant character, a negative multiplicity or a dimension mismatch,
never as a wrong answer.

The Dynkin index of the embedding is computed by branching the adjoint
representation: with I(lambda) = dim * <lambda, lambda+2rho>_norm / (2 dim_g)
and I_G(adjoint) = h_vee, the per-factor index is

    ind_i = sum_terms mult * (prod_{j != i} dim_j) * I_{K_i}(lambda_i) / h_vee_G

and the Killing forms of G and K_i restrict against each other with ratio
j_i = ind_i * h_vee_G / h_vee_{K_i}, the number that converts factor
Casimirs to ambient-Killing units.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import itemgetter, mul

from . import linalg
from .errors import (
    CertificationError, DomainError, InputError, MalformedEmbeddingError,
    UnsupportedDimensionError,
)
from .frozen import Frozen, Value
from .rational import (
    descriptor, fmt_matrix, instance, rat_matrix, required, sequence,
)
from .rootdata import (
    RootSystemData, _chamber, build, casimir_num, check_dominant,
    check_root_system,
)
from .weights import (
    _dominant_casimirs, _weight_diagram, _weyl_dim, weight_diagram
)

_WIDTH = 32  # bits per packed coordinate
_FIELD = (1 << _WIDTH) - 1
_HALF = 1 << (_WIDTH - 1)
_LIMIT = 1 << (_WIDTH - 2)  # bound on a packed coordinate's absolute value
# validate_embedding peels a weight only up to this dimension: E8's
# fundamentals of dimension 147,250 and 2,450,240 peel in about 2 and 9 s,
# and its three larger ones would take far longer
_PEEL_CHECK_LIMIT = 10**6


class EmbeddingSpec(Frozen):
    """Restriction data for K_1 x ... x K_r inside a simple G.

    ``restriction`` has one row per concatenated K-weight coordinate and one
    column per G-weight coordinate; each entry is read with ``rat``, so a
    float or a bool is refused, and kept as a Fraction.  ``ambient`` is a
    ``RootSystemData``, ``factors`` a sequence of them, kept as a tuple,
    and ``name`` a string or None (else InputError).  Instances are
    identity-hashed, and each keeps its own branchings, by dominant weight,
    as they are made.
    """

    _fields = ("ambient", "factors", "restriction", "name")

    def __init__(self, ambient, factors, restriction, name=None):
        if name is not None and not isinstance(name, str):
            raise InputError(f"an embedding name is a string, not {name!r}")
        ambient = check_root_system(ambient)
        factors = sequence(factors, "factors are a sequence")
        factors = tuple(map(check_root_system, factors))
        restriction = rat_matrix(restriction)
        if len(restriction) != sum(f.rank for f in factors):
            raise DomainError("restriction row count != total factor rank")
        if any(len(r) != ambient.rank for r in restriction):
            raise DomainError("restriction column count != ambient rank")
        den = lcm(*(x.denominator for row in restriction for x in row))
        # restriction = _int_rows / _den; _k packs K's weights, and
        # _weights holds the packed restricted weights the peel made
        self.__dict__.update(
            ambient=ambient, factors=factors, restriction=restriction,
            name=name, _branchings={}, _weights={}, _k=_packing(factors),
            _int_rows=tuple(tuple(int(x * den) for x in row)
                            for row in restriction),
            _den=den,
        )

    def _restrict(self, weight: tuple) -> tuple:
        """Image of a checked G-weight as concatenated K-weight coordinates;
        MalformedEmbeddingError if a coordinate is not an integer."""
        den = self._den
        out = []
        for row in self._int_rows:
            value, rest = divmod(sum(map(mul, row, weight)), den)
            if rest:
                raise MalformedEmbeddingError(
                    f"weight {weight} restricts to non-integer coordinates"
                )
            out.append(value)
        return tuple(out)

    def to_json_dict(self) -> dict:
        obj = {
            "ambient": self.ambient.name,
            "factors": [f.name for f in self.factors],
            "restriction": fmt_matrix(self.restriction),
        }
        if self.name is not None:
            obj["name"] = self.name
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "EmbeddingSpec":
        factors = descriptor(obj).get("factors", ())
        factors = sequence(factors, "factors are a sequence")
        factors = tuple(map(build, factors))
        return EmbeddingSpec(
            ambient=build(required(obj, "ambient")),
            factors=factors,
            restriction=obj.get("restriction", []),
            name=obj.get("name"),
        )


class BranchingResult(Value):
    _fields = ("source", "terms")

    def __init__(self, source, terms):
        # terms: ((tuple_of_factor_weights, multiplicity), ...), by label
        self.__dict__.update(source=source, terms=terms)

    def multiplicity(self, factor_weights) -> int:
        """The multiplicity of the K-type whose per-factor highest weights
        are ``factor_weights``, each part any sequence (as ``branch`` takes
        weights); 0 for a label that is not a sequence of weights."""
        terms = self.terms
        try:
            label = tuple(map(tuple, factor_weights))
            i = bisect_left(terms, label, key=itemgetter(0))
        except TypeError:  # parts that are not sequences of ints
            return 0
        return terms[i][1] if i < len(terms) and terms[i][0] == label else 0


class _Packing:
    """The packed weights of K = ``factors`` (module docstring): the shift
    of each coordinate's field, H, the mask of the fields' top two bits,
    the block-diagonal Cartan matrix, and the memos of wall images (by
    sum) and of each K-type's per-factor label and dimension (by key)."""

    def __init__(self, factors):
        rank = sum(f.rank for f in factors)
        self.factors = factors
        self.shifts = tuple(range(_WIDTH * (rank - 1), -1, -_WIDTH))
        self.high = sum(_HALF << s for s in self.shifts)
        self.guard = self.high | self.high >> 1
        self.parts, self.cartan, start = [], [], 0
        for f in factors:
            self.parts.append((start, start + f.rank))
            self.cartan += [
                (0,) * start + tuple(row) + (0,) * (rank - start - f.rank)
                for row in f.cartan
            ]
            start += f.rank
        self.walls = {}
        self.types = {}


@lru_cache(maxsize=None)
def _packing(factors: tuple) -> _Packing:
    """The one ``_Packing`` of K's root systems, shared by its embeddings."""
    return _Packing(factors)


def _pack(k: _Packing, coords, offset: int = 0) -> int:
    """``coords`` packed into k's fields, plus ``offset`` (H for a
    restricted weight); UnsupportedDimensionError for a coordinate of
    absolute value 2^(W-2) or more, which could carry into its neighbour."""
    if any(not -_LIMIT < x < _LIMIT for x in coords):
        raise UnsupportedDimensionError(
            f"weight {tuple(coords)} has a coordinate of absolute value "
            f"2**{_WIDTH - 2} or more"
        )
    return offset + sum(x << s for x, s in zip(coords, k.shifts))


def branch(emb: EmbeddingSpec, sigma) -> BranchingResult:
    """Decompose the restriction of the G-irreducible V_sigma to K."""
    instance(emb, EmbeddingSpec, "an embedding")
    lam = check_dominant(
        emb.ambient, sigma, "branch expects a dominant weight"
    )
    types = emb._k.types
    return BranchingResult(lam, tuple(
        (types[key][0], m) for key, m in _branch(emb, lam).items()
    ))


def _branched(emb: EmbeddingSpec, budget) -> list:
    """(lam, casimir_num, dim, packed branching) for every dominant weight
    of the ambient with Casimir at most ``budget``, in the walk's graded-lex
    order; branched in ascending Casimir (module docstring)."""
    weights = _dominant_casimirs(emb.ambient, budget)
    ascending = sorted(weights, key=itemgetter(1))
    made = {lam: _branch(emb, lam) for lam, _, _ in ascending}
    return [(lam, num, dim, made[lam]) for lam, num, dim in weights]


def _branch(emb: EmbeddingSpec, lam: tuple) -> dict:
    """The packed branching of a checked dominant weight, memoized per
    embedding."""
    made = emb._branchings
    if lam not in made:
        try:
            result = _recurse(emb, lam)
        except MalformedEmbeddingError:
            result = None  # malformed data; lam itself may still peel
        made[lam] = _peel(emb, lam) if result is None else result
    return made[lam]


def _recurse(emb: EmbeddingSpec, lam: tuple):
    """Res V_lam from lower branchings (module docstring), or None unless
    all of them are already made."""
    made = emb._branchings
    if sum(lam) < 2:
        return None  # 0 and the fundamental weights are peeled
    i = next(i for i, x in enumerate(lam) if x)
    omega = tuple(int(k == i) for k in range(len(lam)))
    lam1 = tuple(x - y for x, y in zip(lam, omega))
    coeffs = _tensor(emb.ambient, lam1, omega)
    if coeffs.pop(lam, None) != 1:
        raise CertificationError(f"V_{lam} is not once in V_{lam1} (x) V_{omega}")
    if not all(w in made for w in (lam1, omega, *coeffs)):
        return None
    terms = _kernel(emb._k, made[lam1].items(), _weights(emb, omega))
    get = terms.get
    for kappa, c in coeffs.items():
        for key, m in made[kappa].items():
            terms[key] = get(key, 0) - c * m
    return _result(emb, lam, terms)


def _kernel(k: _Packing, source, weights) -> dict:
    """{key: mult} of sum_a m_a V_a (x) chi by Brauer-Klimyk, over the
    K-types (a, m_a) of ``source`` and the restricted weights
    (packed(mu) + H, mult) of a W_K-invariant character chi (module
    docstring); multiplicities may be 0 or negative until ``_result``."""
    terms = {}
    get = terms.get
    high, walls = k.high, k.walls
    for a, m in source:
        for t, n in weights:
            t += a
            if t & high == high:
                key = t - high
                terms[key] = get(key, 0) + m * n
            else:
                key, sign = walls.get(t) or _wall(k, t)
                terms[key] = get(key, 0) + sign * m * n
    return terms


def _wall(k: _Packing, t: int) -> tuple:
    """(key, det w) for the sum t of a K-type and a restricted weight, nu:
    the packed w(nu + rho) - rho that is dominant, or (0, 0) when nu + rho
    lies on a wall, that is when its dominant representative has a zero
    coordinate; memoized in ``k.walls``."""
    v, sign = _chamber(
        k.cartan, [(t >> s & _FIELD) - _HALF + 1 for s in k.shifts]
    )
    image = (0, 0) if 0 in v else (_pack(k, [x - 1 for x in v]), sign)
    k.walls[t] = image
    return image


def _tensor(rs: RootSystemData, a: tuple, b: tuple) -> dict:
    """{kappa: c} for c != 0 with V_a (x) V_b = sum c V_kappa: the kernel
    on G's own packing, V_a the one source K-type against G's weights of
    V_b."""
    g = _packing((rs,))
    terms = _kernel(g, ((_pack(g, a), 1),), _diagram(g, b))
    return {tuple(_coords(g, key)): c for key, c in terms.items() if c}


@lru_cache(maxsize=None)
def _diagram(g: _Packing, b: tuple) -> list:
    """G's weights of V_b as [(packed(mu) + H, mult)], memoized for
    ``_tensor``'s few b."""
    rs = g.factors[0]
    return [(_pack(g, mu, g.high), m) for mu, m in _weight_diagram(rs, b)]


def _weights(emb: EmbeddingSpec, lam: tuple) -> list:
    """The restricted weights of V_lam as [(packed(mu) + H, mult)], checked
    W_K-invariant, memoized per embedding: the peel of each fundamental
    weight makes those that every step reads."""
    made = emb._weights
    if lam not in made:
        restricted = {}
        for nu, mult in _weight_diagram(emb.ambient, lam):
            key = emb._restrict(nu)
            restricted[key] = restricted.get(key, 0) + mult
        k = emb._k
        for key, mult in restricted.items():
            top = _chamber(k.cartan, key)[0] if key else key  # K of rank 0
            if restricted.get(top) != mult:
                raise MalformedEmbeddingError(
                    "restricted character is not invariant under the Weyl "
                    "group of the subgroup"
                )
        made[lam] = [
            (_pack(k, mu, k.high), mult) for mu, mult in restricted.items()
        ]
    return made[lam]


def _peel(emb: EmbeddingSpec, lam: tuple) -> dict:
    """Res V_lam from its restricted weights alone: the kernel against the
    trivial K-type (module docstring)."""
    return _result(emb, lam, _kernel(emb._k, ((0, 1),), _weights(emb, lam)))


def _result(emb: EmbeddingSpec, lam: tuple, terms: dict) -> dict:
    """The nonzero ``terms`` in key order, checked against dim V_lam, as
    its packed branching."""
    if min(terms.values()) < 0:
        raise MalformedEmbeddingError("negative multiplicity in a branching")
    terms = {key: terms[key] for key in sorted(terms) if terms[key]}
    k = emb._k
    types = k.types  # each K-type a check met, unpacked once, with its dim
    for key in terms.keys() - types.keys():
        coords = _coords(k, key)
        label = tuple([tuple(coords[i:j]) for i, j in k.parts])
        types[key] = label, prod(map(_part_dim, k.factors, label))
    total = sum(m * types[key][1] for key, m in terms.items())
    if total != _weyl_dim(emb.ambient, lam):
        raise MalformedEmbeddingError("branching lost dimensions")
    return terms


def _coords(k: _Packing, key: int) -> list:
    """The coordinates of a packed K-type; UnsupportedDimensionError for
    one of 2^(W-2) or more, whose sums could carry into a neighbour."""
    if key & k.guard:
        raise UnsupportedDimensionError(
            f"a packed weight has a coordinate of 2**{_WIDTH - 2} or more"
        )
    return [key >> s & _FIELD for s in k.shifts]


@lru_cache(maxsize=None)
def _part_dim(f: RootSystemData, part: tuple) -> int:
    """dim of one factor's part of a K-type; K-types share their parts."""
    return _weyl_dim(f, part)


def embedding_index(emb: EmbeddingSpec) -> tuple:
    """Per-factor Dynkin indices, from branching the adjoint of G.

    I_G(adjoint) equals the dual Coxeter number, so each index is the
    K_i-index of the restricted adjoint divided by h_vee of G, where
    <lambda, lambda + 2 rho>_norm = casimir_num / form_den.
    """
    instance(emb, EmbeddingSpec, "an embedding")
    return _indices(emb, _branch(emb, emb.ambient.highest_root))


def _indices(emb: EmbeddingSpec, adjoint: dict) -> tuple:
    """``embedding_index`` from the adjoint's packed branching;
    MalformedEmbeddingError unless every index is positive."""
    types = emb._k.types
    terms = [
        (types[key][0], m * types[key][1]) for key, m in adjoint.items()
    ]
    indices = tuple(
        Fraction(
            sum(m * casimir_num(f, t[i]) for t, m in terms),
            2 * f.dim_g * f.form_den * emb.ambient.dual_coxeter,
        )
        for i, f in enumerate(emb.factors)
    )
    if any(ind <= 0 for ind in indices):
        raise MalformedEmbeddingError("embedding index must be positive")
    return indices


def killing_ratio(emb: EmbeddingSpec) -> tuple:
    """Per-factor ratio j_i between the restricted ambient Killing form
    and the factor's own Killing form: j_i = ind_i * h_vee_G / h_vee_i."""
    return tuple(
        ind * emb.ambient.dual_coxeter / f.dual_coxeter
        for ind, f in zip(embedding_index(emb), emb.factors)
    )


def validate_embedding(emb: EmbeddingSpec) -> dict:
    """Run structural checks; returns a report instead of raising.

    Checks: integer restriction of all adjoint weights, full row rank of
    the restriction matrix, successful peeling of the adjoint and of each
    fundamental weight, each simple factor's adjoint (trivial on the other
    factors) as a K-type of the adjoint's branching, positive indices.
    Every branching of the term catalogue is made from these peels, so
    ``ok`` means that it can be built.  All checks are necessary
    conditions for a subalgebra, none is sufficient: ``ok`` does not prove
    that the restriction comes from one.  A weight of dimension over
    ``_PEEL_CHECK_LIMIT`` is not peeled: its check fails as skipped, since
    nothing then shows that it branches.
    """
    instance(emb, EmbeddingSpec, "an embedding")
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    try:
        for nu, _ in weight_diagram(emb.ambient, emb.ambient.highest_root):
            emb._restrict(nu)
        record("integer-adjoint-weights", True)
    except MalformedEmbeddingError as exc:
        record("integer-adjoint-weights", False, str(exc))

    rows = emb._int_rows
    if rows:
        # R has full row rank iff the Gram matrix of its integer rows is
        # positive definite: its pivots, the leading minors, all positive
        gram = linalg.matmul(rows, linalg.transpose(rows))
        record("full-row-rank", linalg.eliminate(gram)[0][-1] > 0)
    else:
        record("full-row-rank", True, "trivial subgroup")

    rank = emb.ambient.rank
    peels = [("adjoint-peeling", emb.ambient.highest_root)] + [
        (f"fundamental-{i + 1}-peeling",
         tuple(int(j == i) for j in range(rank)))
        for i in range(rank)
    ]
    outcomes = {}  # each peel's packed branching, or why it has none
    for name, lam in peels:
        dim = _weyl_dim(emb.ambient, lam)
        if dim > _PEEL_CHECK_LIMIT:
            outcome = f"skipped: dimension {dim} is over {_PEEL_CHECK_LIMIT}"
        else:
            try:
                outcome = _branch(emb, lam)
            except DomainError as exc:
                outcome = str(exc)
        failed = isinstance(outcome, str)
        record(name, not failed, outcome if failed else "")
        outcomes[name] = outcome

    # the last two checks read the adjoint's outcome, so a failing adjoint
    # is branched once
    adjoint = outcomes["adjoint-peeling"]
    if isinstance(adjoint, str):
        record("subalgebra-adjoint", False, adjoint)
        record("positive-indices", False, adjoint)
        return {"ok": False, "checks": checks}
    # a subalgebra k of g is a K-submodule of g, so the adjoint of each
    # simple factor k_i, trivial on the others, is a K-type of g's adjoint
    k = emb._k
    missing = []
    for i, (f, (lo, hi)) in enumerate(zip(emb.factors, k.parts)):
        coords = [0] * len(k.shifts)
        coords[lo:hi] = f.highest_root
        if _pack(k, coords) not in adjoint:
            missing.append(str(i + 1))
    record("subalgebra-adjoint", not missing, "" if not missing else
           "no adjoint K-type of factor " + ",".join(missing))
    try:
        indices = _indices(emb, adjoint)
        record("positive-indices", True, ",".join(str(i) for i in indices))
    except DomainError as exc:
        record("positive-indices", False, str(exc))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
