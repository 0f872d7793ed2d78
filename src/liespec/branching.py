"""Branching of irreducibles to an embedded product subgroup.

An embedding of K = K_1 x ... x K_r into a simple G is given by a rational
restriction matrix carrying G-weight coordinates to concatenated K-weight
coordinates (the transpose of the Cartan-subalgebra inclusion); it is held
as an integer matrix over one common denominator, built once per embedding.
Branching restricts the weight diagram of a G-irreducible once, checks that
the restricted character is W_K-invariant (every weight tuple has the
multiplicity of its per-factor dominant representative), and keeps only
its K-dominant part.  That part is peeled in one pass, in descending order
of (total Casimir, then graded-lex): subtracting the character of a K-type
lowers only tuples of strictly smaller total Casimir, so each tuple's
residue is final when the pass reaches it, and it is that K-type's
multiplicity.  Each K-type's dominant part is the product of the factors'
cached dominant characters; by the invariance check, the dominant part
determines the whole residue.  Everything is exact, and malformed
restriction data surfaces as a non-integer image, a non-invariant
character, a negative residue or a dimension mismatch, never as a wrong
answer.

The Dynkin index of the embedding is computed by branching the adjoint
representation: with I(lambda) = dim * <lambda, lambda+2rho>_norm / (2 dim_g)
and I_G(adjoint) = h_vee, the per-factor index is

    ind_i = sum_terms mult * (prod_{j != i} dim_j) * I_{K_i}(lambda_i) / h_vee_G

and the Killing forms of G and K_i restrict against each other with ratio
j_i = ind_i * h_vee_G / h_vee_{K_i}, the number that converts factor
Casimirs to ambient-Killing units.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .errors import DomainError, InputError, MalformedEmbeddingError
from .rational import array, fmt, rat_matrix, required
from .rootdata import (
    RootSystemData,
    build,
    casimir_num,
    check_weight,
    contragredient_weight,
    dominant_rep,
    ip_norm,
    is_dominant,
)
from .weights import dominant_character, weight_diagram, weyl_dim


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Restriction data for K_1 x ... x K_r inside a simple G.

    ``restriction`` has one row per concatenated K-weight coordinate and one
    column per G-weight coordinate.  Instances are identity-hashed so
    branching results can be cached per embedding object.
    """

    ambient: RootSystemData
    factors: tuple
    restriction: tuple
    name: str = None
    # restriction = _int_rows / _den, split into one block per factor
    _int_rows: tuple = field(init=False, repr=False)
    _den: int = field(init=False, repr=False)

    def __post_init__(self):
        rows = sum(f.rank for f in self.factors)
        if len(self.restriction) != rows:
            raise DomainError("restriction row count != total factor rank")
        if any(len(r) != self.ambient.rank for r in self.restriction):
            raise DomainError("restriction column count != ambient rank")
        rows_q = [[Fraction(x) for x in row] for row in self.restriction]
        den = lcm(*(x.denominator for row in rows_q for x in row))
        scaled = [tuple(int(x * den) for x in row) for row in rows_q]
        blocks = []
        for f in self.factors:
            blocks.append(tuple(scaled[: f.rank]))
            scaled = scaled[f.rank :]
        object.__setattr__(self, "_int_rows", tuple(blocks))
        object.__setattr__(self, "_den", den)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def restrict_weight(self, weight):
        """Image of a G-weight as per-factor coordinate tuples.

        Raises MalformedEmbeddingError if any image coordinate is not an
        integer.
        """
        den = self._den
        parts = []
        for block in self._int_rows:
            part = []
            for row in block:
                value, rest = divmod(
                    sum(a * x for a, x in zip(row, weight)), den
                )
                if rest:
                    raise MalformedEmbeddingError(
                        f"weight {tuple(weight)} restricts to non-integer "
                        "coordinates"
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
            restriction=rat_matrix(obj.get("restriction", [])),
            name=name,
        )


@dataclass(frozen=True)
class BranchingResult:
    source: tuple
    terms: tuple  # ((tuple_of_factor_weights, multiplicity), ...)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def multiplicity(self, factor_weights) -> int:
        return self.as_dict().get(tuple(factor_weights), 0)


def _peel_key(emb: EmbeddingSpec, den: int, tup):
    """(total Casimir over den, graded-lex) of a tuple of factor weights."""
    concat = tuple(x for part in tup for x in part)
    total = sum(
        casimir_num(f, w) * (den // f.casimir_den)
        for f, w in zip(emb.factors, tup)
    )
    return (total, sum(concat), concat)


def branch(emb: EmbeddingSpec, sigma) -> BranchingResult:
    """Decompose the restriction of the G-irreducible V_sigma to K."""
    lam = check_weight(emb.ambient, sigma)
    if not is_dominant(lam):
        raise DomainError("branch expects a dominant weight")
    return _branch(emb, lam)


@lru_cache(maxsize=None)
def _branch(emb: EmbeddingSpec, lam: tuple) -> BranchingResult:
    """``branch`` of a checked dominant weight, cached per embedding."""
    if emb.num_factors == 0:
        return BranchingResult(
            source=lam, terms=(((), weyl_dim(emb.ambient, lam)),)
        )

    restricted = {}
    for nu, mult in weight_diagram(emb.ambient, lam).mults:
        key = emb.restrict_weight(nu)
        restricted[key] = restricted.get(key, 0) + mult
    residue = {}
    for key, mult in restricted.items():
        top = tuple(
            dominant_rep(f, part) for f, part in zip(emb.factors, key)
        )
        if restricted.get(top) != mult:
            raise MalformedEmbeddingError(
                "restricted character is not invariant under the Weyl "
                "group of the subgroup"
            )
        if top == key:
            residue[key] = mult

    den = lcm(*(f.casimir_den for f in emb.factors))
    terms = {}
    for top in sorted(
        residue, key=lambda t: _peel_key(emb, den, t), reverse=True
    ):
        mult = residue[top]
        if mult < 0:
            raise MalformedEmbeddingError("negative residue while peeling")
        if not mult:
            continue
        characters = [
            dominant_character(f, part) for f, part in zip(emb.factors, top)
        ]
        for combo in itertools.product(*characters):
            key = tuple(w for w, _ in combo)
            count = mult
            for _, m in combo:
                count *= m
            value = residue.get(key, 0) - count
            if value < 0:
                raise MalformedEmbeddingError("negative residue while peeling")
            residue[key] = value
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


def spherical_mult(emb: EmbeddingSpec, sigma) -> int:
    """Multiplicity of the trivial K-type in V_sigma restricted to K."""
    trivial = tuple(tuple(0 for _ in range(f.rank)) for f in emb.factors)
    return branch(emb, sigma).multiplicity(trivial)


def _rep_index(rs: RootSystemData, weight) -> Fraction:
    """Dynkin index I(lambda) = dim * <lambda, lambda+2rho>_norm / (2 dim_g)."""
    lam = tuple(weight)
    shifted = tuple(x + 2 for x in lam)
    return (
        Fraction(weyl_dim(rs, lam))
        * ip_norm(rs, lam, shifted)
        / (2 * rs.dim_g)
    )


@lru_cache(maxsize=None)
def embedding_index(emb: EmbeddingSpec) -> tuple:
    """Per-factor Dynkin indices, from branching the adjoint of G.

    I_G(adjoint) equals the dual Coxeter number, so each index is the
    K_i-index of the restricted adjoint divided by h_vee of G.
    """
    result = branch(emb, emb.ambient.highest_root)
    indices = []
    for i, factor in enumerate(emb.factors):
        total = Fraction(0)
        for tup, mult in result.terms:
            other_dims = 1
            for j, (f, part) in enumerate(zip(emb.factors, tup)):
                if j != i:
                    other_dims *= weyl_dim(f, part)
            total += mult * other_dims * _rep_index(factor, tup[i])
        indices.append(total / emb.ambient.dual_coxeter)
    if any(ind <= 0 for ind in indices):
        raise MalformedEmbeddingError("embedding index must be positive")
    return tuple(indices)


def killing_ratio(emb: EmbeddingSpec) -> tuple:
    """Per-factor ratio j_i between the restricted ambient Killing form
    and the factor's own Killing form: j_i = ind_i * h_vee_G / h_vee_i."""
    return tuple(
        ind * emb.ambient.dual_coxeter / f.dual_coxeter
        for ind, f in zip(embedding_index(emb), emb.factors)
    )


def contragredient_tuple(emb: EmbeddingSpec, tup) -> tuple:
    """Apply per-factor contragredient to a branching term label."""
    return tuple(
        contragredient_weight(f, part) for f, part in zip(emb.factors, tup)
    )


def validate_embedding(emb: EmbeddingSpec) -> dict:
    """Run structural checks; returns a report instead of raising.

    Checks: integer restriction of all adjoint weights, full row rank of
    the restriction matrix, successful peeling of the adjoint, positive
    indices.
    """
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    try:
        for nu, _ in weight_diagram(
            emb.ambient, emb.ambient.highest_root
        ).mults:
            emb.restrict_weight(nu)
        record("integer-adjoint-weights", True)
    except MalformedEmbeddingError as exc:
        record("integer-adjoint-weights", False, str(exc))

    total = sum(f.rank for f in emb.factors)
    if total:
        # R has full row rank iff the row Gram matrix R R^T is nonsingular.
        full = linalg.det(
            linalg.matmul(emb.restriction, linalg.transpose(emb.restriction))
        ) != 0
        record("full-row-rank", full)
    else:
        record("full-row-rank", True, "trivial subgroup")

    try:
        branch(emb, emb.ambient.highest_root)
        record("adjoint-peeling", True)
    except (MalformedEmbeddingError, DomainError) as exc:
        record("adjoint-peeling", False, str(exc))

    try:
        indices = embedding_index(emb)
        record(
            "positive-indices",
            all(ind > 0 for ind in indices),
            ",".join(str(i) for i in indices),
        )
    except (MalformedEmbeddingError, DomainError) as exc:
        record("positive-indices", False, str(exc))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
