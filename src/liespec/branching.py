"""Branching of irreducibles to an embedded product subgroup.

An embedding of K = K_1 x ... x K_r into a simple G is given by a rational
restriction matrix carrying G-weight coordinates to concatenated K-weight
coordinates (the transpose of the Cartan-subalgebra inclusion); it is held
as an integer matrix over one common denominator, built once per embedding.
Restriction is a ring homomorphism R(G) -> R(K), so branching recurses
over the dominant cone: with lam = lam' + omega, omega the fundamental
weight of lam's first nonzero coordinate,

    Res V_lam = Res V_lam' * Res V_omega - sum_{kappa != lam} c_kappa Res V_kappa

where V_lam' (x) V_omega = sum c_kappa V_kappa (Brauer-Klimyk on G; the
K-side products by the same rule on each factor, each product a (x) b of
two K-types multiplied out over the factors once, in a memo keyed by the
factors' root systems and shared by every embedding of the same K, so a
step is dictionary additions and its checks).  A step checks that V_lam
occurs once, no multiplicity is negative and the dimensions add up (dim
V_lam by ``weights._weyl_dim``; each K-type's by ``_product_dim``, memoized
like the products from its parts' ``_weyl_dim``, so no module-level memo
holds an embedding or its branchings).  ``branch`` checks the weight it is
given; a step reads, unchecked, only weights that the walk or the memo made
from checked ones.  A step runs only if every branching it reads is
memoized: each kappa has a smaller Casimir than lam, so ``_branched``,
which walks and branches the weights below a Casimir budget for the term
catalogue and the normal quotient, takes them in ascending Casimir and
recurses past 0 and the fundamentals.  Other weights, one asked for alone
among them, and steps that fail on malformed data are peeled: the
restricted weight diagram is checked W_K-invariant, and each weight nu adds
its multiplicity, signed by det w, at w(nu + rho) - rho in every factor,
unless nu + rho lies on a wall (Brauer-Klimyk with a trivial first factor;
``_dot`` walks the chamber for ``_tensor`` too).  K-characters decompose
uniquely, so the two agree where both succeed.  Malformed data surfaces as
a non-integer image, a non-invariant character, a negative multiplicity or
a dimension mismatch, never as a wrong answer.

The Dynkin index of the embedding is computed by branching the adjoint
representation: with I(lambda) = dim * <lambda, lambda+2rho>_norm / (2 dim_g)
and I_G(adjoint) = h_vee, the per-factor index is

    ind_i = sum_terms mult * (prod_{j != i} dim_j) * I_{K_i}(lambda_i) / h_vee_G

and the Killing forms of G and K_i restrict against each other with ratio
j_i = ind_i * h_vee_G / h_vee_{K_i}, the number that converts factor
Casimirs to ambient-Killing units.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import add, itemgetter, mul

from . import linalg
from .errors import (
    CertificationError, DomainError, InputError, MalformedEmbeddingError
)
from .frozen import Frozen, Value
from .rational import array, fmt, rat_matrix, required
from .rootdata import (
    RootSystemData, _chamber, build, casimir_num, check_dominant,
    check_root_system,
)
from .weights import (
    _dominant_casimirs, _weight_diagram, _weyl_dim, weight_diagram
)


class EmbeddingSpec(Frozen):
    """Restriction data for K_1 x ... x K_r inside a simple G.

    ``restriction`` has one row per concatenated K-weight coordinate and one
    column per G-weight coordinate; each entry is read with ``rat``, so a
    float or a bool is refused, and kept as a Fraction.  ``ambient`` is a
    ``RootSystemData`` and ``factors`` a list or tuple of them, kept as a
    tuple (else InputError).  Instances are identity-hashed, and each keeps
    its own branchings, by dominant weight, as they are made.
    """

    _fields = ("ambient", "factors", "restriction", "name")

    def __init__(self, ambient, factors, restriction, name=None):
        ambient = check_root_system(ambient)
        factors = tuple(map(check_root_system, array(factors, "factors")))
        restriction = rat_matrix(restriction)
        if len(restriction) != sum(f.rank for f in factors):
            raise DomainError("restriction row count != total factor rank")
        if any(len(r) != ambient.rank for r in restriction):
            raise DomainError("restriction column count != ambient rank")
        den = lcm(*(x.denominator for row in restriction for x in row))
        scaled = [tuple(int(x * den) for x in row) for row in restriction]
        blocks = []
        for f in factors:
            blocks.append(tuple(scaled[: f.rank]))
            scaled = scaled[f.rank :]
        # restriction = _int_rows / _den, split into one block per factor
        self.__dict__.update(
            ambient=ambient, factors=factors, restriction=restriction,
            name=name, _branchings={}, _int_rows=tuple(blocks), _den=den,
        )

    def _restrict(self, weight: tuple) -> tuple:
        """Image of a checked G-weight as per-factor coordinate tuples;
        MalformedEmbeddingError if a coordinate is not an integer."""
        den = self._den
        parts = []
        for block in self._int_rows:
            part = []
            for row in block:
                value, rest = divmod(sum(map(mul, row, weight)), den)
                if rest:
                    raise MalformedEmbeddingError(
                        f"weight {weight} restricts to non-integer coordinates"
                    )
                part.append(value)
            parts.append(tuple(part))
        return tuple(parts)

    def to_json_dict(self) -> dict:
        obj = {
            "ambient": self.ambient.name,
            "factors": [f.name for f in self.factors],
            "restriction": [[fmt(x) for x in row] for row in self.restriction],
        }
        if self.name is not None:
            obj["name"] = self.name
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "EmbeddingSpec":
        factors = tuple(map(build, array(obj.get("factors", []), "factors")))
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise InputError(f"an embedding name is a string, not {name!r}")
        return EmbeddingSpec(
            ambient=build(required(obj, "ambient")),
            factors=factors,
            restriction=obj.get("restriction", []),
            name=name,
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


def branch(emb: EmbeddingSpec, sigma) -> BranchingResult:
    """Decompose the restriction of the G-irreducible V_sigma to K."""
    lam = check_dominant(
        emb.ambient, sigma, "branch expects a dominant weight"
    )
    return _branch(emb, lam)


def _branched(emb: EmbeddingSpec, budget) -> list:
    """(lam, casimir_num, dim, branching) for every dominant weight of the
    ambient with Casimir at most ``budget``, in the walk's graded-lex
    order; branched in ascending Casimir (module docstring)."""
    weights = _dominant_casimirs(emb.ambient, budget)
    ascending = sorted(weights, key=itemgetter(1))
    made = {lam: _branch(emb, lam) for lam, _, _ in ascending}
    return [(lam, num, dim, made[lam]) for lam, num, dim in weights]


def _branch(emb: EmbeddingSpec, lam: tuple) -> BranchingResult:
    """``branch`` of a checked dominant weight, memoized per embedding."""
    made = emb._branchings
    if lam not in made:
        try:
            result = _recurse(emb, lam)
        except MalformedEmbeddingError:
            result = None  # malformed data; lam itself may still peel
        made[lam] = _peel(emb, lam) if result is None else result
    return made[lam]


def _recurse(emb: EmbeddingSpec, lam: tuple):
    """Res V_lam from the products of lower branchings (module docstring),
    or None unless all of them are already made."""
    made = emb._branchings
    if sum(lam) < 2:
        return None  # 0 and the fundamental weights are peeled
    i = next(i for i, x in enumerate(lam) if x)
    omega = tuple(int(k == i) for k in range(len(lam)))
    lam1 = tuple(x - y for x, y in zip(lam, omega))
    coeffs = dict(_tensor(emb.ambient, lam1, omega))
    if coeffs.pop(lam, None) != 1:
        raise CertificationError(f"V_{lam} is not once in V_{lam1} (x) V_{omega}")
    if not all(w in made for w in (lam1, omega, *coeffs)):
        return None
    terms = {}
    get = terms.get
    factors = emb.factors
    for a, m in made[lam1].terms:
        for b, n in made[omega].terms:
            mn = m * n
            for key, c in _product(factors, a, b):
                terms[key] = get(key, 0) + mn * c
    for kappa, c in coeffs.items():
        for key, m in made[kappa].terms:
            terms[key] = get(key, 0) - c * m
    return _result(emb, lam, terms)


@lru_cache(maxsize=None)
def _product(factors: tuple, a: tuple, b: tuple) -> tuple:
    """((kappa, c), ...) with V_a (x) V_b = sum c V_kappa for K-types a and
    b of ``factors``: ``_tensor`` on each factor, multiplied out.  It
    depends only on K's root systems, so every embedding of the same K
    shares it."""
    out = [((), 1)]
    for terms in map(_tensor, factors, a, b):
        out = [(key + (k,), m * c) for key, m in out for k, c in terms]
    return tuple(out)


@lru_cache(maxsize=None)
def _tensor(rs: RootSystemData, a: tuple, b: tuple) -> tuple:
    """((kappa, c), ...) with V_a (x) V_b = sum c V_kappa, by Brauer-Klimyk:
    each weight mu of V_b adds its multiplicity, signed by w, at kappa =
    w(a + mu + rho) - rho, unless a zero coordinate puts it on a wall."""
    out = {}
    for mu, mult in _diagram(rs, b):
        dot = _dot(rs, tuple(map(add, a, mu)))
        if dot is not None:
            kappa, sign = dot
            out[kappa] = out.get(kappa, 0) + sign * mult
    return tuple(sorted(kc for kc in out.items() if kc[1]))


def _dot(rs: RootSystemData, nu: tuple):
    """(kappa, det w) with kappa = w(nu + rho) - rho dominant, or None when
    nu + rho lies on a wall, that is when its dominant representative has
    a zero coordinate."""
    if min(nu) >= 0:
        return nu, 1  # nu + rho is already strictly dominant
    v, sign = _chamber(rs.cartan, [x + 1 for x in nu])
    return None if 0 in v else (tuple([x - 1 for x in v]), sign)


@lru_cache(maxsize=None)
def _diagram(rs: RootSystemData, b: tuple) -> tuple:
    """``weight_diagram(rs, b)``, memoized for ``_tensor``'s few b."""
    return _weight_diagram(rs, b)


def _peel(emb: EmbeddingSpec, lam: tuple) -> BranchingResult:
    """Restrict the weight diagram of V_lam, check it W_K-invariant, and
    decompose it in one Brauer-Klimyk pass (module docstring)."""
    if not emb.factors:
        return BranchingResult(lam, (((), _weyl_dim(emb.ambient, lam)),))
    restricted = {}
    for nu, mult in _weight_diagram(emb.ambient, lam):
        key = emb._restrict(nu)
        restricted[key] = restricted.get(key, 0) + mult
    terms = Counter()
    for key, mult in restricted.items():
        top = tuple(_chamber(f.cartan, k)[0] for f, k in zip(emb.factors, key))
        if restricted.get(top) != mult:
            raise MalformedEmbeddingError(
                "restricted character is not invariant under the Weyl "
                "group of the subgroup"
            )
        dots = tuple(map(_dot, emb.factors, key))
        if None not in dots:
            terms[tuple(k for k, _ in dots)] += mult * prod(s for _, s in dots)
    return _result(emb, lam, terms)


def _result(emb: EmbeddingSpec, lam: tuple, terms: dict) -> BranchingResult:
    """The nonzero ``terms``, checked against dim V_lam, as its branching."""
    if any(m < 0 for m in terms.values()):
        raise MalformedEmbeddingError("negative multiplicity in a branching")
    terms = {t: m for t, m in terms.items() if m}
    total = sum(m * _product_dim(emb.factors, t) for t, m in terms.items())
    if total != _weyl_dim(emb.ambient, lam):
        raise MalformedEmbeddingError("branching lost dimensions")
    return BranchingResult(source=lam, terms=tuple(sorted(terms.items())))


@lru_cache(maxsize=None)
def _product_dim(factors: tuple, tup: tuple) -> int:
    """dim V_tup for a K-type ``tup`` of ``factors``, keyed as ``_product``."""
    return prod(map(_weyl_dim, factors, tup))


def embedding_index(emb: EmbeddingSpec) -> tuple:
    """Per-factor Dynkin indices, from branching the adjoint of G.

    I_G(adjoint) equals the dual Coxeter number, so each index is the
    K_i-index of the restricted adjoint divided by h_vee of G, where
    <lambda, lambda + 2 rho>_norm = casimir_num / form_den.
    """
    terms = branch(emb, emb.ambient.highest_root).terms
    indices = tuple(
        Fraction(
            sum(m * _product_dim(emb.factors, t) * casimir_num(f, t[i])
                for t, m in terms),
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
    the restriction matrix, successful peeling of the adjoint, positive
    indices.  ``ok`` covers these checks of the adjoint alone: another
    weight may still fail to branch.
    """
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    try:
        for nu, _ in weight_diagram(emb.ambient, emb.ambient.highest_root):
            emb._restrict(nu)
        record("integer-adjoint-weights", True)
    except MalformedEmbeddingError as exc:
        record("integer-adjoint-weights", False, str(exc))

    total = sum(f.rank for f in emb.factors)
    if total:
        # R has full row rank iff the row Gram matrix R R^T is nonsingular,
        # that is iff the last pivot of its elimination is not 0
        r = emb.restriction
        gram = linalg.matmul(r, linalg.transpose(r))
        pivots, _, _, _ = linalg.eliminate(linalg.clear_denominators(gram)[0])
        record("full-row-rank", pivots[-1] != 0)
    else:
        record("full-row-rank", True, "trivial subgroup")

    try:
        branch(emb, emb.ambient.highest_root)
        record("adjoint-peeling", True)
    except DomainError as exc:
        record("adjoint-peeling", False, str(exc))

    try:
        # embedding_index raises unless every index is positive
        indices = embedding_index(emb)
        record("positive-indices", True, ",".join(str(i) for i in indices))
    except DomainError as exc:
        record("positive-indices", False, str(exc))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
