import itertools
import random
from fractions import Fraction as F

import pytest

from liespec.branching import (
    BranchingResult,
    EmbeddingSpec,
    branch,
    contragredient_tuple,
    embedding_index,
    killing_ratio,
    spherical_mult,
    validate_embedding,
)
from liespec.catalog import BUILTIN_EMBEDDINGS, resolve
from liespec.errors import DomainError, MalformedEmbeddingError
from liespec.rootdata import build
from liespec.weights import dominant_weights_up_to, weyl_dim

from helpers import principal_a1_branching, principal_a1_row, ref_branch

STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
PRINC = BUILTIN_EMBEDDINGS["a1-in-a2-principal"]
SO4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]


def test_standard_a1_in_a2():
    # defining 3 of su(3) restricts to doublet + singlet
    assert branch(STD, (1, 0)).as_dict() == {((1,),): 1, ((0,),): 1}
    # adjoint 8 restricts to triplet + two doublets + singlet
    assert branch(STD, (1, 1)).as_dict() == {
        ((2,),): 1,
        ((1,),): 2,
        ((0,),): 1,
    }
    assert embedding_index(STD) == (F(1),)
    assert killing_ratio(STD) == (F(3, 2),)


def test_principal_a1_in_a2():
    assert branch(PRINC, (1, 0)).as_dict() == {((2,),): 1}
    assert branch(PRINC, (1, 1)).as_dict() == {((2,),): 1, ((4,),): 1}
    assert embedding_index(PRINC) == (F(4),)
    assert killing_ratio(PRINC) == (F(6),)


def test_so4_in_so5():
    vec = branch(SO4, (1, 0)).as_dict()
    assert vec == {((1,), (1,)): 1, ((0,), (0,)): 1}
    spin = branch(SO4, (0, 1)).as_dict()
    assert spin == {((0,), (1,)): 1, ((1,), (0,)): 1}
    adj = branch(SO4, (0, 2)).as_dict()
    assert adj == {((2,), (0,)): 1, ((0,), (2,)): 1, ((1,), (1,)): 1}
    assert embedding_index(SO4) == (F(1), F(1))
    assert killing_ratio(SO4) == (F(3, 2), F(3, 2))


def test_identity_embedding():
    assert branch(IDA2, (2, 1)).as_dict() == {((2, 1),): 1}
    assert embedding_index(IDA2) == (F(1),)
    assert killing_ratio(IDA2) == (F(1),)


def test_rank_zero_factor_list():
    emb = EmbeddingSpec(ambient=build("A2"), factors=(), restriction=())
    assert branch(emb, (1, 1)).as_dict() == {(): 8}
    assert spherical_mult(emb, (1, 0)) == 3
    assert embedding_index(emb) == ()


def test_dimension_identity_random():
    rng = random.Random(31)
    for emb in (STD, PRINC, SO4):
        for _ in range(12):
            sigma = tuple(rng.randint(0, 4) for _ in range(2))
            res = branch(emb, sigma)
            total = 0
            for tup, mult in res.terms:
                prod = 1
                for f, part in zip(emb.factors, tup):
                    prod *= weyl_dim(f, part)
                total += mult * prod
            assert total == weyl_dim(emb.ambient, sigma)


def test_branch_result_shape_and_cache():
    res = branch(STD, (2, 1))
    assert isinstance(res, BranchingResult)
    assert res.source == (2, 1)
    assert res.multiplicity(((1,),)) == res.as_dict().get(((1,),), 0)
    assert res.multiplicity(((9,),)) == 0
    assert branch(STD, (2, 1)) is res  # cached per embedding object
    # the weight is checked before the cache: lists and strings hit it too
    assert branch(STD, [2, 1]) is res
    assert branch(STD, ("2", "1")) is res


def test_contragredient_symmetry():
    rng = random.Random(5)
    for emb in (STD, SO4, IDA2):
        for _ in range(8):
            sigma = tuple(rng.randint(0, 3) for _ in range(2))
            dualized = {
                contragredient_tuple(emb, tup): m
                for tup, m in branch(emb, sigma).terms
            }
            from liespec.rootdata import contragredient_weight

            sigma_dual = contragredient_weight(emb.ambient, sigma)
            assert branch(emb, sigma_dual).as_dict() == dualized


def test_spherical_mults():
    assert spherical_mult(STD, (1, 0)) == 1
    assert spherical_mult(STD, (1, 1)) == 1
    assert spherical_mult(PRINC, (1, 0)) == 0
    assert spherical_mult(SO4, (1, 0)) == 1
    assert spherical_mult(SO4, (0, 1)) == 0


def test_malformed_negative_residue():
    # not a Lie algebra map: peeling the pushed diagram goes negative
    emb = EmbeddingSpec(
        ambient=build("A2"), factors=(build("A1"),), restriction=((1, 3),)
    )
    with pytest.raises(MalformedEmbeddingError):
        branch(emb, (1, 0))


def test_branch_matches_product_diagram_reference():
    for emb in BUILTIN_EMBEDDINGS.values():
        sigmas = dominant_weights_up_to(emb.ambient, 6)
        assert len(sigmas) > 10
        for sigma in sigmas:
            assert branch(emb, sigma) == ref_branch(emb, sigma)


@pytest.mark.parametrize(
    "name, top",
    [(n, 2) for n in ("A2", "A3", "B2", "B3", "C3", "G2")]
    + [(n, 1) for n in ("A4", "B4", "C4", "D4", "F4")],
)
def test_principal_a1_matches_q_dimension(name, top):
    # Kostant's principal A1 against Weyl's principal specialization, on
    # every lambda in {0, ..., top}^rank
    rs = build(name)
    emb = EmbeddingSpec(
        ambient=rs, factors=(build("A1"),), restriction=(principal_a1_row(rs),)
    )
    for lam in itertools.product(range(top + 1), repeat=rs.rank):
        assert branch(emb, lam).as_dict() == principal_a1_branching(rs, lam)


def test_non_invariant_restriction_is_malformed():
    # an integral matrix whose restricted adjoint character is not
    # W_K-invariant, although its dominant part alone would peel into the
    # single K-type (1, 1) with the right dimension
    emb = EmbeddingSpec(
        ambient=build("A2"),
        factors=(build("A2"),),
        restriction=((-2, 1), (0, -1)),
    )
    with pytest.raises(MalformedEmbeddingError, match="not invariant"):
        branch(emb, (1, 1))
    with pytest.raises(MalformedEmbeddingError):
        ref_branch(emb, (1, 1))
    checks = {c["name"]: c["ok"] for c in validate_embedding(emb)["checks"]}
    assert checks["integer-adjoint-weights"] is True
    assert checks["adjoint-peeling"] is False


def _outcome(fn, emb, sigma):
    try:
        return fn(emb, sigma).terms
    except MalformedEmbeddingError:
        return "malformed"


def test_malformed_outcomes_match_reference():
    # the dominant-only peel accepts and rejects what the full peel does
    rng = random.Random(17)
    cases = [
        (build("A2"), (build("A1"),)),
        (build("A2"), (build("A2"),)),
        (build("B2"), (build("A1"), build("A1"))),
    ]
    rejected = tried = 0
    for ambient, factors in cases:
        rows = sum(f.rank for f in factors)
        for _ in range(25):
            restriction = tuple(
                tuple(rng.randint(-2, 2) for _ in range(ambient.rank))
                for _ in range(rows)
            )
            emb = EmbeddingSpec(
                ambient=ambient, factors=factors, restriction=restriction
            )
            for sigma in ((1, 0), (0, 1), (1, 1), (2, 0)):
                new = _outcome(branch, emb, sigma)
                assert new == _outcome(ref_branch, emb, sigma)
                rejected += new == "malformed"
                tried += 1
    assert 0 < rejected < tried


def test_malformed_non_integer_image():
    emb = EmbeddingSpec(
        ambient=build("A2"),
        factors=(build("A1"),),
        restriction=((F(1, 2), F(1, 2)),),
    )
    with pytest.raises(MalformedEmbeddingError):
        branch(emb, (1, 0))


def test_embedding_spec_validation():
    with pytest.raises(DomainError):
        EmbeddingSpec(
            ambient=build("A2"), factors=(build("A1"),), restriction=()
        )
    with pytest.raises(DomainError):
        EmbeddingSpec(
            ambient=build("A2"), factors=(build("A1"),), restriction=((1,),)
        )


def test_validate_embedding_reports():
    for emb in (STD, PRINC, SO4, IDA2):
        report = validate_embedding(emb)
        assert report["ok"] is True
        assert all(c["ok"] for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert "integer-adjoint-weights" in names
        assert "positive-indices" in names
    # rank-deficient restriction fails validation but does not raise
    bad = EmbeddingSpec(
        ambient=build("A2"), factors=(build("A1"),), restriction=((0, 0),)
    )
    report = validate_embedding(bad)
    assert report["ok"] is False


def test_json_round_trip():
    for name, emb in BUILTIN_EMBEDDINGS.items():
        back = EmbeddingSpec.from_json_dict(emb.to_json_dict())
        assert back.ambient is emb.ambient
        assert back.factors == emb.factors
        assert back.restriction == emb.restriction
        assert back.name == emb.name == name
    assert resolve(EmbeddingSpec, "a1-in-a2-standard") is STD
