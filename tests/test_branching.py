import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from liespec import branching
from liespec.branching import (
    BranchingResult,
    EmbeddingSpec,
    branch,
    embedding_index,
    killing_ratio,
    validate_embedding,
    _peel,
    _recurse,
    _tensor,
)
from liespec.catalog import BUILTIN_EMBEDDINGS, resolve
from liespec.errors import (
    DomainError,
    InputError,
    MalformedEmbeddingError,
    UnsupportedDimensionError,
)
from liespec.natred import NatRedMetric, natred_spectrum, term_catalogue
from liespec.rootdata import build, casimir, casimir_num, check_weight

from helpers import (
    contragredient_tuple,
    dominant_weights_up_to,
    kostant_branch,
    principal_a1_branching,
    principal_a1_row,
    ref_branch,
    ref_contragredient,
    ref_spherical_mult,
    ref_tensor,
    ref_term_catalogue,
    weyl_dim,
)

STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
PRINC = BUILTIN_EMBEDDINGS["a1-in-a2-principal"]
SO4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]


def test_standard_a1_in_a2():
    # defining 3 of su(3) restricts to doublet + singlet
    assert dict(branch(STD, (1, 0)).terms) == {((1,),): 1, ((0,),): 1}
    # adjoint 8 restricts to triplet + two doublets + singlet
    assert dict(branch(STD, (1, 1)).terms) == {
        ((2,),): 1,
        ((1,),): 2,
        ((0,),): 1,
    }
    assert embedding_index(STD) == (F(1),)
    assert killing_ratio(STD) == (F(3, 2),)


def test_principal_a1_in_a2():
    assert dict(branch(PRINC, (1, 0)).terms) == {((2,),): 1}
    assert dict(branch(PRINC, (1, 1)).terms) == {((2,),): 1, ((4,),): 1}
    assert embedding_index(PRINC) == (F(4),)
    assert killing_ratio(PRINC) == (F(6),)


def test_so4_in_so5():
    vec = dict(branch(SO4, (1, 0)).terms)
    assert vec == {((1,), (1,)): 1, ((0,), (0,)): 1}
    spin = dict(branch(SO4, (0, 1)).terms)
    assert spin == {((0,), (1,)): 1, ((1,), (0,)): 1}
    adj = dict(branch(SO4, (0, 2)).terms)
    assert adj == {((2,), (0,)): 1, ((0,), (2,)): 1, ((1,), (1,)): 1}
    assert embedding_index(SO4) == (F(1), F(1))
    assert killing_ratio(SO4) == (F(3, 2), F(3, 2))


def test_identity_embedding():
    assert dict(branch(IDA2, (2, 1)).terms) == {((2, 1),): 1}
    assert embedding_index(IDA2) == (F(1),)
    assert killing_ratio(IDA2) == (F(1),)


def test_rank_zero_factor_list():
    emb = EmbeddingSpec(ambient=build("A2"), factors=(), restriction=())
    assert dict(branch(emb, (1, 1)).terms) == {(): 8}
    assert branch(emb, (1, 0)).multiplicity(()) == 3
    assert ref_spherical_mult(emb, (1, 0)) == 3
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
    assert res.multiplicity(((1,),)) == dict(res.terms).get(((1,),), 0)
    assert res.multiplicity(((9,),)) == 0
    # cached per embedding object, packed, and unpacked at each call; the
    # weight is checked before the cache: lists and strings hit it too
    made = STD._branchings[(2, 1)]
    for sigma in ((2, 1), [2, 1], ("2", "1")):
        assert branch(STD, sigma) == res
        assert branching._branch(STD, (2, 1)) is made


def test_multiplicity_looks_up_every_label():
    # the lookup in the sorted terms answers as the dict of the terms does:
    # for every label, as a tuple and as a list, and for absent labels
    # below, between and above them
    for emb in (STD, PRINC, SO4, IDA2):
        for sigma in dominant_weights_up_to(emb.ambient, 12):
            res = branch(emb, sigma)
            table = dict(res.terms)
            for label in table:
                assert res.multiplicity(label) == table[label]
                assert res.multiplicity(list(label)) == table[label]
                bumped = ((label[0][0] + 1, *label[0][1:]), *label[1:])
                assert res.multiplicity(bumped) == table.get(bumped, 0)
            low = tuple((-1,) * f.rank for f in emb.factors)
            high = tuple((99,) * f.rank for f in emb.factors)
            assert res.multiplicity(low) == res.multiplicity(high) == 0
            # labels that are not tuples of weights are absent
            flat = (0,) * len(emb.factors)
            assert res.multiplicity(flat) == res.multiplicity("0" * 2) == 0
            # a label given as lists reads as the tuple label does
            trivial = tuple((0,) * f.rank for f in emb.factors)
            assert res.multiplicity(
                [[0] * f.rank for f in emb.factors]
            ) == res.multiplicity(trivial)
    alone = branch(_fresh("a1-in-a2-standard"), (3, 1))  # one peel
    assert alone.multiplicity(((2,),)) == dict(alone.terms)[((2,),)]


def test_contragredient_symmetry():
    rng = random.Random(5)
    for emb in (STD, SO4, IDA2):
        for _ in range(8):
            sigma = tuple(rng.randint(0, 3) for _ in range(2))
            dualized = {
                contragredient_tuple(emb, tup): m
                for tup, m in branch(emb, sigma).terms
            }
            sigma_dual = ref_contragredient(emb.ambient, sigma)
            assert dict(branch(emb, sigma_dual).terms) == dualized


def test_spherical_mults():
    for emb, sigma, fixed in (
        (STD, (1, 0), 1),
        (STD, (1, 1), 1),
        (PRINC, (1, 0), 0),
        (SO4, (1, 0), 1),
        (SO4, (0, 1), 0),
    ):
        trivial = tuple((0,) * f.rank for f in emb.factors)
        assert ref_spherical_mult(emb, sigma) == fixed
        assert branch(emb, sigma).multiplicity(trivial) == fixed


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
        assert dict(branch(emb, lam).terms) == principal_a1_branching(rs, lam)


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
    with pytest.raises(MalformedEmbeddingError, match="non-integer"):
        branch(emb, (1, 0))


def test_a_negative_multiplicity_fails_where_dimensions_add_up():
    # 2 V_(1) - V_(0) of A1 has the dimension 3 of V_(1, 0) of A2, so only
    # the sign check refuses it; a raise, so it also holds under python -O
    with pytest.raises(MalformedEmbeddingError, match="negative multiplicity"):
        branching._result(STD, (1, 0), {((1,),): 2, ((0,),): -1})


def test_embedding_spec_validation():
    with pytest.raises(DomainError):
        EmbeddingSpec(
            ambient=build("A2"), factors=(build("A1"),), restriction=()
        )
    with pytest.raises(DomainError):
        EmbeddingSpec(
            ambient=build("A2"), factors=(build("A1"),), restriction=((1,),)
        )


def test_restriction_entries_are_read_as_rationals():
    # each entry is read with ``rat``, as every other input is: a float or
    # a bool is refused, and what is kept is a Fraction
    b2, a1 = build("B2"), build("A1")
    for rows in (((1.0, 0), (1, True)), ((1, 0), (1, 1.0)), ((1, 0), ("x", 1))):
        with pytest.raises(InputError):
            EmbeddingSpec(ambient=b2, factors=(a1, a1), restriction=rows)
    emb = EmbeddingSpec(
        ambient=b2, factors=(a1, a1), restriction=((1, 0), ("1", F(1)))
    )
    assert all(type(x) is F for row in emb.restriction for x in row)
    assert emb.restriction == SO4.restriction
    assert dict(branch(emb, (2, 1)).terms) == dict(branch(SO4, (2, 1)).terms)


def test_validate_embedding_reports():
    for emb in (STD, PRINC, SO4, IDA2):
        report = validate_embedding(emb)
        assert report["ok"] is True
        assert all(c["ok"] for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert "integer-adjoint-weights" in names
        assert "positive-indices" in names
        assert names[2:-1] == ["adjoint-peeling"] + [
            f"fundamental-{i + 1}-peeling" for i in range(emb.ambient.rank)
        ] + ["subalgebra-adjoint"]
    # rank-deficient restriction fails validation but does not raise
    bad = EmbeddingSpec(
        ambient=build("A2"), factors=(build("A1"),), restriction=((0, 0),)
    )
    report = validate_embedding(bad)
    assert report["ok"] is False
    # a trivial subgroup has no restriction rows to rank
    trivial = EmbeddingSpec(ambient=build("B2"), factors=(), restriction=())
    report = validate_embedding(trivial)
    assert report["ok"] is True
    assert report["checks"][1] == {
        "name": "full-row-rank", "ok": True, "detail": "trivial subgroup"
    }


def test_a_fundamental_weight_too_large_to_peel_is_skipped(monkeypatch):
    # over the dimension limit a fundamental weight is not peeled, and its
    # check fails as skipped: ok is not claimed for what was not checked
    monkeypatch.setattr(branching, "_PEEL_CHECK_LIMIT", 4)
    emb = _fresh("a1xa1-in-b2")  # B2's fundamentals have dimensions 5, 4
    report = validate_embedding(emb)
    assert report["ok"] is False
    assert report["checks"][3] == {
        "name": "fundamental-1-peeling", "ok": False,
        "detail": "skipped: dimension 5 is over 4",
    }
    assert report["checks"][4]["ok"] is True
    assert (1, 0) not in emb._branchings


def test_validate_embedding_branches_a_failing_adjoint_once(monkeypatch):
    # a failing branching is not memoized, so the last two checks read the
    # adjoint check's outcome: the adjoint's one step and peel, and a peel
    # of each fundamental, with the same detail in all three reports
    calls = []
    for name in ("_peel", "_tensor"):
        real = getattr(branching, name)
        monkeypatch.setattr(branching, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    half = EmbeddingSpec(build("A2"), (build("A1"),), [["1/2", "1/2"]])
    report = validate_embedding(half)
    assert calls.count("_peel") == 3 and calls.count("_tensor") == 1
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["adjoint-peeling"] == (
        "weight (-2, 1) restricts to non-integer coordinates"
    )
    for name in ("subalgebra-adjoint", "positive-indices"):
        assert details[name] == details["adjoint-peeling"]


def test_an_embedding_reported_ok_has_a_spectrum():
    # the 147 A1 restrictions [[a, b]], a and b in [-2, 4], into A2, B2 and
    # G2: each fundamental weight is peeled as its own check, so a
    # restriction reported ok builds its term catalogue, and natred_spectrum
    # runs on it at a fiber below and above the base; the adjoint's checks
    # alone said ok to 16 more, all of which the spectrum refused, and the
    # peels to six more into G2 whose adjoint branching has no V_2, the
    # adjoint of the A1
    a1 = build("A1")
    reported_ok, only_subalgebra = 0, []
    for name in ("A2", "B2", "G2"):
        for row in itertools.product(range(-2, 5), repeat=2):
            emb = EmbeddingSpec(build(name), (a1,), (row,))
            report = validate_embedding(emb)
            failed = [c["name"] for c in report["checks"] if not c["ok"]]
            if report["ok"]:
                reported_ok += 1
                for fiber in ("1/2", "2"):
                    natred_spectrum(NatRedMetric(emb, 1, (fiber,)), 3)
            elif failed == ["subalgebra-adjoint"]:
                only_subalgebra.append((name, row))
    assert reported_ok == 43
    assert only_subalgebra == [
        ("G2", row)
        for row in ((-2, -1), (-1, 1), (1, -1), (1, 4), (2, 1), (3, 4))
    ]


def test_json_round_trip():
    for name, emb in BUILTIN_EMBEDDINGS.items():
        back = EmbeddingSpec.from_json_dict(emb.to_json_dict())
        assert back.ambient is emb.ambient
        assert back.factors == emb.factors
        assert back.restriction == emb.restriction
        assert back.name == emb.name == name
    assert resolve(EmbeddingSpec, "a1-in-a2-standard") is STD


def test_an_embedding_name_that_is_no_string_is_refused():
    # the constructor checks the name, so every record it makes writes JSON
    # that from_json_dict reads back
    a2, a1 = build("A2"), build("A1")
    for name in (5, ["x"], b"x", True):
        with pytest.raises(
            InputError, match="^an embedding name is a string, not "
        ):
            EmbeddingSpec(a2, [a1], [[1, 1]], name=name)
    emb = EmbeddingSpec(a2, [a1], [[1, 1]], name="x")
    assert EmbeddingSpec.from_json_dict(emb.to_json_dict()).name == "x"


# a set iterates in hash order: read as a sequence, {"1/2", "1/3"} would
# be the fiber scales (1/2, 1/3) under one hash seed and (1/3, 1/2) under
# another, two metrics of the A1 x A1 in G2
_SET_SCALES_SCRIPT = """
from liespec.branching import EmbeddingSpec
from liespec.errors import InputError
from liespec.natred import NatRedMetric
from liespec.rootdata import build

a1 = build("A1")
emb = EmbeddingSpec(build("G2"), (a1, a1), [[0, 1], [2, 3]])
try:
    print(NatRedMetric(emb, 1, {"1/2", "1/3"}).fiber_scales)
except InputError as exc:
    print(exc)
"""


def test_a_set_of_fiber_scales_is_refused_under_every_hash_seed():
    for seed in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path),
            PYTHONHASHSEED=seed,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SET_SCALES_SCRIPT],
            env=env, capture_output=True, check=True, text=True,
        )
        assert proc.stdout.startswith("fiber scales are a sequence, not "), (
            seed, proc.stdout
        )


def _principal_a1(name):
    rs = build(name)
    return EmbeddingSpec(
        ambient=rs, factors=(build("A1"),), restriction=(principal_a1_row(rs),)
    )


def _walk(emb, budget, peel=False):
    """(sigma, branching) over the cone up to ``budget`` in ascending
    Casimir, as the term catalogue asks for them; past 0 and the fundamental
    weights each packed branching comes from the recursion itself, and on
    well-formed data none may fall back to the peel.  With ``peel``, the
    peel of each weight must give the same packed branching."""
    rs = emb.ambient
    for sigma in sorted(
        dominant_weights_up_to(rs, budget), key=lambda s: casimir_num(rs, s)
    ):
        res = branch(emb, sigma)
        made = emb._branchings[sigma]
        if sum(sigma) > 1:
            assert _recurse(emb, sigma) == made
        if peel:
            assert _peel(emb, sigma) == made
        yield sigma, res


def test_branch_matches_reference_up_to_casimir_12():
    # the recursion against the Fraction peel of full weight diagrams; on
    # the principal A1 in rank 3 and G2 that reference is run up to
    # dimension 300, and the q-dimension oracle covers every weight; the
    # peel is compared too, except in rank 3, where it is the slow part
    for emb in BUILTIN_EMBEDDINGS.values():
        for sigma, res in _walk(emb, 12, peel=True):
            assert res == ref_branch(emb, sigma)
    for name in ("B3", "C3", "A3", "G2"):
        emb = _principal_a1(name)
        assert len(dominant_weights_up_to(emb.ambient, 12)) > 30
        for sigma, res in _walk(emb, 12, peel=name == "G2"):
            assert dict(res.terms) == principal_a1_branching(emb.ambient, sigma)
            if weyl_dim(emb.ambient, sigma) <= 300:
                assert res == ref_branch(emb, sigma)


def test_term_catalogue_matches_fraction_reference():
    # den and the merged rows in order, against the catalogue rebuilt in
    # Fractions from the reference peel, each on a fresh embedding so that
    # its branchings come from the recursion
    fresh = [_fresh(name) for name in BUILTIN_EMBEDDINGS]
    for emb in fresh + [_principal_a1("G2")]:
        catalogue = term_catalogue(emb, 12)
        assert len(catalogue[1]) > 20
        assert catalogue == ref_term_catalogue(emb, 12)


def test_branch_matches_a_kostant_racah_speiser_oracle(monkeypatch):
    # the oracle (tests/helpers.py) restricts Kostant's characters weight
    # by weight and decomposes them by Racah-Speiser; it shares no code with
    # the recursion, the peel, Freudenthal or the chamber walk
    peeled = []
    monkeypatch.setattr(
        branching, "_peel", lambda e, lam: peeled.append(lam) or _peel(e, lam)
    )
    fresh = [_fresh(name) for name in BUILTIN_EMBEDDINGS]
    for emb in fresh + [_principal_a1("G2")]:
        # every weight of the term catalogue's walk: past 0, the fundamental
        # weights and the adjoint, which the Killing ratios branch alone
        # first, each branching comes from the recursion
        peeled.clear()
        term_catalogue(emb, 8)
        theta = emb.ambient.highest_root
        assert all(sum(lam) < 2 or lam == theta for lam in peeled)
        assert len(emb._branchings) > 20
        for lam in emb._branchings:
            assert branch(emb, lam).terms == kostant_branch(emb, lam), lam
        # the walk's last weight alone, on a fresh embedding, is one peel
        rs = emb.ambient
        top = max(emb._branchings, key=lambda lam: casimir_num(rs, lam))
        alone = EmbeddingSpec(rs, emb.factors, emb.restriction)
        peeled.clear()
        assert branch(alone, top).terms == kostant_branch(emb, top)
        assert peeled == [top]


def _gelfand_tsetlin(lam) -> dict:
    """A_{n-1} in A_n: the K-types of V_lam counted by the partitions mu
    interlacing lam's partition p_1 >= mu_1 >= p_2 >= ... >= mu_n >= 0."""
    n = len(lam)
    p = [sum(lam[k:]) for k in range(n)] + [0]
    out = {}
    for mu in itertools.product(*(range(p[k + 1], p[k] + 1) for k in range(n))):
        key = (tuple(mu[k] - mu[k + 1] for k in range(n - 1)),)
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_branch_matches_gelfand_tsetlin(n):
    # the upper-left A_{n-1} pairs with the first n - 1 simple coroots
    emb = EmbeddingSpec(
        ambient=build(f"A{n}"),
        factors=(build(f"A{n - 1}"),),
        restriction=tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n - 1)
        ),
    )
    assert len(dominant_weights_up_to(emb.ambient, 6)) > 20
    for sigma, res in _walk(emb, 6):
        assert dict(res.terms) == _gelfand_tsetlin(sigma)


def test_recursion_rejects_where_the_peel_accepts(monkeypatch):
    # from test_malformed_outcomes_match_reference (seed 17): V_(1,0) does
    # not peel, so it is never memoized and no step for (1, 1) = (0, 1) +
    # omega_1 can run, while V_(1,1) itself peels and agrees with the
    # reference
    def make():
        return EmbeddingSpec(
            ambient=build("B2"),
            factors=(build("A1"), build("A1")),
            restriction=((0, 0), (2, 2)),
        )

    emb = make()
    with pytest.raises(MalformedEmbeddingError):
        branch(emb, (1, 0))
    expected = ((((0,), (2,)), 2), (((0,), (4,)), 2))
    assert branch(emb, (1, 1)).terms == expected
    assert ref_branch(emb, (1, 1)).terms == expected
    # a step that raises MalformedEmbeddingError itself is peeled as well
    def failing_step(e, lam):
        raise MalformedEmbeddingError("step failed")

    monkeypatch.setattr(branching, "_recurse", failing_step)
    assert branch(make(), (1, 1)).terms == expected


_NON_INTEGER_SCRIPT = """
import json
from fractions import Fraction
from liespec.branching import EmbeddingSpec, branch
from liespec.errors import MalformedEmbeddingError
from liespec.rootdata import build

emb = EmbeddingSpec(
    ambient=build("A2"),
    factors=(build("A1"),),
    restriction=((Fraction(1, 2), Fraction(1, 2)),),
)
raised = []
for sigma in ((1, 0), (1, 1), (2, 0), (2, 2)):
    try:
        branch(emb, sigma)
        raised.append(None)
    except MalformedEmbeddingError as exc:
        raised.append(type(exc).__name__)
print(json.dumps({"debug": __debug__, "raised": raised}))
"""


def test_non_integer_image_is_malformed_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_INTEGER_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False  # asserts really are stripped
    assert result["raised"] == ["MalformedEmbeddingError"] * 4


def _fresh(name):
    emb = BUILTIN_EMBEDDINGS[name]
    return EmbeddingSpec(emb.ambient, emb.factors, emb.restriction)


def test_bool_coordinates_are_refused():
    # a bool is an int to Python but not a weight coordinate (JSON true is
    # not the number 1), and (True, False) == (1, 0) would share a memo key
    a2 = build("A2")
    emb = _fresh("a1-in-a2-standard")
    for call in (
        lambda: check_weight(a2, (True, 0)),
        lambda: casimir(a2, (True, 0)),
        lambda: branch(emb, (True, False)),
    ):
        with pytest.raises(InputError):
            call()
    assert not emb._branchings
    with pytest.raises(DomainError, match="dominant weight"):
        branch(emb, (1, -1))
    assert not emb._branchings
    source = branch(emb, (1, 0)).source
    assert source == (1, 0) and all(type(x) is int for x in source)
    assert json.dumps(source) == "[1, 0]"


def test_one_weight_alone_is_peeled(monkeypatch):
    # nothing below (20, 20) is made first, so it is one peel, not a
    # recursion through the cone under it
    emb = _fresh("a1xa1-in-b2")
    peeled = []
    monkeypatch.setattr(
        branching, "_peel", lambda e, lam: peeled.append(lam) or _peel(e, lam)
    )
    branch(emb, (20, 20))
    assert peeled == [(20, 20)] and list(emb._branchings) == [(20, 20)]


@pytest.mark.parametrize("name, lam", [("A2", (40, 40)), ("B2", (20, 20))])
def test_one_large_weight_peels_to_the_q_dimension(name, lam):
    # a fresh embedding memoizes nothing, so this is the peel alone
    emb = _principal_a1(name)
    assert dict(branch(emb, lam).terms) == principal_a1_branching(emb.ambient, lam)
    assert list(emb._branchings) == [lam]


@pytest.mark.parametrize(
    "make",
    [lambda: _fresh("a1xa1-in-b2"), lambda: _principal_a1("G2")],
    ids=["a1xa1-in-b2", "principal-a1-in-g2"],
)
def test_term_catalogue_recurses_past_the_fundamentals(make, monkeypatch):
    # in G2, kappa = lam - alpha_2 has a larger coordinate sum than lam, so
    # a walk in graded-lex order would reach some weights before their kappa
    emb = make()
    rank = emb.ambient.rank
    peeled = []
    monkeypatch.setattr(
        branching, "_peel", lambda e, lam: peeled.append(lam) or _peel(e, lam)
    )
    term_catalogue(emb, 20)
    # the adjoint, for the embedding index, then 0 and the fundamentals
    basis = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    assert peeled[0] == emb.ambient.highest_root
    assert set(peeled) == {(0,) * rank, emb.ambient.highest_root} | basis
    assert len(peeled) == len(set(peeled))
    weights = dominant_weights_up_to(emb.ambient, 20)
    assert len(weights) > 2 * len(peeled)
    assert set(emb._branchings) == set(weights)


def test_each_wall_sum_is_reflected_once_per_k(monkeypatch):
    # a sum of a K-type and a restricted weight with a negative coordinate
    # is walked to its wall image once, at the first kernel pass that meets
    # it, and the image is shared by every embedding of the same K; G's
    # tensor step runs the same kernel on G's own packing, whose sums are
    # walked once each too; a fresh memo of the packings makes this a cold
    # catalogue
    walked = []
    wall = branching._wall
    monkeypatch.setattr(
        branching, "_wall",
        lambda k, t: walked.append((k, t)) or wall(k, t),
    )
    branching._packing.cache_clear()
    signs = set()
    for make in (lambda: _fresh("a1xa1-in-b2"), lambda: _principal_a1("G2")):
        walked.clear()
        emb = make()
        term_catalogue(emb, 20)
        g = branching._packing((emb.ambient,))
        assert g is not emb._k
        assert len(walked) == len(set(walked))
        for k in (g, emb._k):
            sums = [t for p, t in walked if p is k]
            assert len(sums) == len(k.walls) >= 5
            signs |= {sign for _, sign in k.walls.values()}
        assert {p for p, _ in walked} == {g, emb._k}
        again = make()
        assert again._k is emb._k
        term_catalogue(again, 20)
        assert len(walked) == len(g.walls) + len(emb._k.walls)
    # sums on a wall (sign 0) and sums reflected to a K-type both occur
    assert {0, -1} <= signs


def test_g_and_k_share_the_wall_memo_when_they_are_one_group(monkeypatch):
    # identity-a2 packs G and K alike, so G's tensor step and K's product
    # read one memo of wall images, and each sum is walked once for both
    walked = []
    wall = branching._wall
    monkeypatch.setattr(
        branching, "_wall", lambda k, t: walked.append(t) or wall(k, t)
    )
    branching._packing.cache_clear()
    emb = _fresh("identity-a2")
    term_catalogue(emb, 20)
    assert branching._packing((emb.ambient,)) is emb._k
    assert len(walked) == len(set(walked)) == len(emb._k.walls) >= 5


def _without_one_product_term(real, emb):
    """``_kernel`` that leaves out, in a step's product on K's packing but
    not in a peel or in G's tensor step, the greatest K-type."""

    def kernel(k, source, weights):
        terms = real(k, source, weights)
        if k is emb._k and source != ((0, 1),):
            del terms[max(terms)]
        return terms

    return kernel


def _without_one_kappa(real, ambient):
    """``_tensor`` that leaves out, on G only, the first kappa that is not
    a + b, so that V_(a+b) still occurs once."""

    def tensor(rs, a, b):
        terms = real(rs, a, b)
        top = tuple(x + y for x, y in zip(a, b))
        lower = sorted(k for k in terms if k != top)
        if rs is ambient and lower:
            del terms[lower[0]]
        return terms

    return tensor


@pytest.mark.parametrize("fault", ["product", "tensor"])
def test_a_faulty_step_fails_its_checks_and_is_peeled(fault, monkeypatch):
    # a step whose K-side product is short of one K-type loses
    # dimensions, and one that reads a G tensor product
    # short of one kappa gains them; either step raises and its weight is
    # peeled, so no wrong branching is memoized
    def peels(emb):
        peeled = []
        monkeypatch.setattr(
            branching, "_peel",
            lambda e, lam: peeled.append(lam) or _peel(e, lam),
        )
        term_catalogue(emb, 12)
        return peeled

    healthy = peels(_fresh("a1xa1-in-b2"))
    emb = _fresh("a1xa1-in-b2")
    if fault == "product":
        faulty = _without_one_product_term(branching._kernel, emb)
        monkeypatch.setattr(branching, "_kernel", faulty)
    else:
        faulty = _without_one_kappa(branching._tensor, emb.ambient)
        monkeypatch.setattr(branching, "_tensor", faulty)
    peeled = peels(emb)
    weights = dominant_weights_up_to(emb.ambient, 12)
    assert sorted(peeled) == sorted(weights)
    assert len(weights) > 2 * len(healthy)
    for lam in weights:
        assert branch(emb, lam) == ref_branch(emb, lam)


_FAULTY_STEP_SCRIPT = """
import json
from liespec import branching
from liespec.branching import EmbeddingSpec
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.natred import term_catalogue
from liespec.weights import _dominant_casimirs

emb = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]

def fresh():
    return EmbeddingSpec(emb.ambient, emb.factors, emb.restriction)

healthy = term_catalogue(fresh(), 12)
kernel, peel, peeled = branching._kernel, branching._peel, []

def faulty_kernel(k, source, weights):
    # a step's product on K's packing short of its greatest K-type; a peel
    # and G's tensor step are left whole
    terms = kernel(k, source, weights)
    if k is emb._k and source != ((0, 1),):
        del terms[max(terms)]
    return terms

branching._kernel = faulty_kernel
branching._peel = lambda e, lam: peeled.append(lam) or peel(e, lam)
faulty = term_catalogue(fresh(), 12)
print(json.dumps({
    "debug": __debug__,
    "peeled": sorted(peeled),
    "weights": sorted(w for w, _, _ in _dominant_casimirs(emb.ambient, 12)),
    "same": faulty == healthy,
}))
"""


def test_a_faulty_step_is_peeled_under_optimize():
    # the step's checks are explicit raises, not asserts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAULTY_STEP_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False  # asserts really are stripped
    assert result["peeled"] == result["weights"]
    assert result["same"] is True


def test_tensor_product_brauer_klimyk():
    a1, a2, g2 = build("A1"), build("A2"), build("G2")
    # Clebsch-Gordan, 3 x 3 = 6 + 3bar, 3 x 3bar = 8 + 1, 7 x 7 of G2
    assert _tensor(a1, (2,), (2,)) == {(0,): 1, (2,): 1, (4,): 1}
    assert _tensor(a2, (1, 0), (1, 0)) == {(0, 1): 1, (2, 0): 1}
    assert _tensor(a2, (1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}
    assert _tensor(g2, (1, 0), (1, 0)) == {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (2, 0): 1,
    }
    # dimensions multiply, the product commutes, and V_(a+b) occurs once
    rng = random.Random(11)
    for name in ("A2", "B2", "G2", "A3", "C3"):
        rs = build(name)
        weights = dominant_weights_up_to(rs, 3)
        for _ in range(6):
            a, b = rng.choice(weights), rng.choice(weights)
            terms = _tensor(rs, a, b)
            assert type(terms) is dict
            assert terms == _tensor(rs, b, a)
            assert all(c > 0 for c in terms.values())
            assert sum(c * weyl_dim(rs, k) for k, c in terms.items()) == (
                weyl_dim(rs, a) * weyl_dim(rs, b)
            )
            top = tuple(x + y for x, y in zip(a, b))
            assert terms[top] == 1


def test_tensor_matches_the_tuple_reference():
    # the kernel on G's packing against Brauer-Klimyk on weight tuples, for
    # every pair of dominant weights under a small budget; a weight with a
    # zero coordinate puts some of its sums on or next to a wall
    for name in ("A2", "B2", "G2", "A3", "C3"):
        rs = build(name)
        weights = dominant_weights_up_to(rs, 2)
        assert sum(0 in w for w in weights) >= 2
        for a in weights:
            for b in weights:
                assert _tensor(rs, a, b) == dict(ref_tensor(rs, a, b)), (a, b)
        assert branching._packing((rs,)).walls


def test_a_g_coordinate_past_the_field_is_refused_at_the_step():
    # a weight with a coordinate of 2^(W-2) has its own coordinate, or the
    # tensor step's V_lam, past the field guard, so the step raises before
    # any peel of a weight that large is tried
    limit = 1 << (branching._WIDTH - 2)
    for emb in (_fresh("a1xa1-in-b2"), _fresh("identity-a2")):
        for lam in ((limit, 0), (0, limit), (limit + 1, 1)):
            with pytest.raises(UnsupportedDimensionError):
                branch(emb, lam)
    with pytest.raises(UnsupportedDimensionError):
        _tensor(build("A1"), (limit,), (1,))
