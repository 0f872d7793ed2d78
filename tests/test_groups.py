import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dominant_weights_up_to,
    ref_biinvariant_spectrum,
    ref_center_admissible,
)

from liespec import linalg
from liespec.branching import EmbeddingSpec, branch, embedding_index
from liespec.catalog import (
    BUILTIN_EMBEDDINGS,
    BUILTIN_GROUPS,
    resolve,
)
from liespec.errors import DomainError, InputError
from liespec.groups import GroupSpec, biinvariant_spectrum, factor_lambda1
from liespec.isolation import isolation_scan
from liespec.natred import NatRedMetric
from liespec.rootdata import build, check_weight

SU2 = BUILTIN_GROUPS["su2"]
SU3 = BUILTIN_GROUPS["su3"]
SO3 = BUILTIN_GROUPS["so3"]


def test_su2_biinvariant_table():
    t = biinvariant_spectrum(SU2, 10)
    assert t.unit == "raw" and t.complete
    expect = {F(n * (n + 2), 8): (n + 1) ** 2 for n in range(9)}
    assert dict(t.entries) == expect


def test_so3_even_classes_only():
    t = biinvariant_spectrum(SO3, 10)
    expect = {F(n * (n + 2), 8): (n + 1) ** 2 for n in range(0, 9, 2)}
    assert dict(t.entries) == expect
    assert t.lambda1() == 1 and t.multiplicity(F(1)) == 9


def test_su3_lambda1():
    t = biinvariant_spectrum(SU3, F(4, 9))
    assert t.entries == ((F(0), 1), (F(4, 9), 18))


def test_center_admissibility():
    # the fold keeps the class (n) of SU(2), at n(n + 2)/8 with multiplicity
    # (n + 1)^2, exactly when the reference finds Gamma trivial on it
    assert [ref_center_admissible(SO3, ((n,),)) for n in range(4)] == [
        True, False, True, False,
    ]
    for gs in (SO3, SU2):
        table = biinvariant_spectrum(gs, 2)
        for n in range(4):
            kept = table.multiplicity(F(n * (n + 2), 8)) == (n + 1) ** 2
            assert kept == ref_center_admissible(gs, ((n,),))
    with pytest.raises(DomainError):
        ref_center_admissible(SU2, ((1,), (1,)))


def test_center_admissible_refuses_weights_that_are_not_dominant():
    # the reference takes outside weights through the library's gate, an
    # explicit raise, so it holds under python -O too
    for gs, lams in ((SO3, ((-2,),)), (SU2, ((-1,),))):
        with pytest.raises(DomainError):
            ref_center_admissible(gs, lams)
    gs = GroupSpec.from_json_dict(json.loads(THREE_FACTOR_GAMMA))
    with pytest.raises(DomainError, match="expects dominant weights"):
        ref_center_admissible(gs, ((0,), (1, -2), (0, 0)))


def test_bad_gamma_rejected():
    # pairing 1/3 with the root alpha = 2*omega of su(2) is not integral
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), gamma=(((F(1, 3),),),))
    GroupSpec(factors=(build("A1"),), gamma=(((F(1, 2),),),))


def test_scaling_covariance():
    plain = biinvariant_spectrum(SU2, 3)
    scaled = biinvariant_spectrum(
        GroupSpec(factors=(build("A1"),), scales=(F(1, 2),)), 6
    )
    assert [(2 * e, m) for e, m in plain.entries] == list(scaled.entries)


def test_product_group_spectrum():
    g = GroupSpec(factors=(build("A1"), build("A1")))
    t = biinvariant_spectrum(g, 2)
    # eigenvalue n(n+2)/8 + m(m+2)/8 with multiplicity ((n+1)(m+1))^2
    expect = {}
    for n in range(5):
        for m in range(5):
            e = F(n * (n + 2) + m * (m + 2), 8)
            if e <= 2:
                expect[e] = expect.get(e, 0) + ((n + 1) * (m + 1)) ** 2
    assert dict(t.entries) == expect


def test_fold_drops_partial_sums_past_the_cutoff():
    # each factor's budget c_i <= 3/8 admits (1,), but the class
    # ((1,), (1,)) has eigenvalue 3/4 > 3/8: the fold drops it
    a1 = build("A1")
    su2xsu2 = GroupSpec(factors=(a1, a1))
    assert biinvariant_spectrum(su2xsu2, F(3, 8)).entries == (
        (F(0), 1), (F(3, 8), 8),
    )
    # the diagonal center of SU2 x SU2 keeps n + m even
    diag = GroupSpec(factors=(a1, a1), gamma=(((F(1, 2),), (F(1, 2),)),))
    assert biinvariant_spectrum(diag, F(3, 4)).entries == (
        (F(0), 1), (F(3, 4), 16),
    )


# Gamma on three factors: z_1 pairs with weights of A1 in halves and of A2
# in thirds, z_2 with those of A1 and B2 in halves, so classes live mod 1/6
THREE_FACTOR_GAMMA = (
    '{"factors":["A1","A2","B2"],"scales":["1/2","1","3/2"],'
    '"gamma":[[["1/2"],["1/3","2/3"],["0","0"]],'
    '[["1/2"],["0","0"],["0","1/2"]]]}'
)


def test_gamma_on_three_factors_with_classes_of_different_orders():
    gs = GroupSpec.from_json_dict(json.loads(THREE_FACTOR_GAMMA))
    table = biinvariant_spectrum(gs, 6)
    assert table == ref_biinvariant_spectrum(gs, 6)
    assert table != biinvariant_spectrum(
        GroupSpec(gs.factors, scales=gs.scales), 6
    )
    # recorded before the spectrum became a fold over the factors
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == (
        "c17e0d8c3345411a7d975077d4c12fddfc853e2ee03ad41376be5b25deb501d9"
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(F(1, 2), 2, max_denominator=3),
                min_size=3, max_size=3))
def test_center_admissible_matches_fraction_reference(scales):
    # the fold's integer class test against the Fraction sum of the Gamma
    # pairings, ref_center_admissible, on the classes of three factors
    gs = GroupSpec.from_json_dict(json.loads(THREE_FACTOR_GAMMA))
    gs = GroupSpec(gs.factors, gamma=gs.gamma, scales=scales)
    assert biinvariant_spectrum(gs, 2) == ref_biinvariant_spectrum(gs, 2)


def _pairs_roots_integrally(factors, z):
    """The Fraction root check: every positive root of each factor pairs
    integrally with that factor's part of z."""
    return all(
        sum(F(a) * F(b) for a, b in zip(root, part)).denominator == 1
        for f, part in zip(factors, z)
        for root in f.pos_roots_fund
    )


def test_gamma_root_check_matches_fraction_reference():
    cases = [
        ((build("A2"),), ((("1/3", "2/3"),),), True),
        ((build("B2"),), ((("0", "1/2"),),), True),
        ((build("A1"),), ((("1/3",),),), False),
        ((build("A2"),), ((("1/3", "1/3"),),), False),
    ]
    rng = random.Random(27)
    for _ in range(60):
        factors = tuple(
            build(rng.choice(["A1", "A2", "B2", "G2", "A3"]))
            for _ in range(rng.randint(1, 2))
        )
        gamma = tuple(
            tuple(
                tuple(
                    F(rng.randrange(12), rng.choice((1, 2, 3, 4, 6)))
                    for _ in range(f.rank)
                )
                for f in factors
            )
            for _ in range(rng.randint(1, 2))
        )
        cases.append((factors, gamma, None))
    for factors, gamma, pinned in cases:
        gamma = tuple(tuple(tuple(map(F, part)) for part in z) for z in gamma)
        ok = all(_pairs_roots_integrally(factors, z) for z in gamma)
        assert pinned in (None, ok)
        if ok:
            GroupSpec(factors, gamma=gamma)
        else:
            with pytest.raises(DomainError):
                GroupSpec(factors, gamma=gamma)


def test_factor_whose_budget_admits_only_the_trivial_weight():
    # A2's least nonzero Casimir 4/9 exceeds its budget 1 * 1/100
    a1, a2 = build("A1"), build("A2")
    table = biinvariant_spectrum(GroupSpec((a1, a2), scales=(1, F(1, 100))), 1)
    assert table == biinvariant_spectrum(GroupSpec((a1,)), 1)


def test_factor_lambda1():
    val, wit = factor_lambda1(build("A1"), 1)
    assert val == F(3, 8) and wit == (1,)
    val, wit = factor_lambda1(build("A2"), 1)
    assert val == F(4, 9)
    val, _ = factor_lambda1(build("A2"), F(1, 3))
    assert val == F(4, 3)
    with pytest.raises(DomainError):
        factor_lambda1(build("A1"), 0)


def test_group_json_round_trip():
    for name, gs in BUILTIN_GROUPS.items():
        back = GroupSpec.from_json_dict(gs.to_json_dict())
        assert tuple(f.name for f in back.factors) == tuple(
            f.name for f in gs.factors
        )
        assert back.gamma == gs.gamma
        assert back.scales == gs.scales
    assert resolve(GroupSpec, "su3").factors[0] is build("A2")


def test_group_validation():
    with pytest.raises(DomainError):
        GroupSpec(factors=())
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), scales=(0,))
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), scales=(1, 1))
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), gamma=(((1,), (1,)),))
    # a coweight part has one coordinate per unit of its factor's rank
    with pytest.raises(DomainError, match="coweight length"):
        GroupSpec(factors=(build("A2"),), gamma=(((F(1, 3),),),))
    # a descriptor is a JSON object
    with pytest.raises(InputError, match="descriptor must be an object"):
        GroupSpec.from_json_dict([1])


def test_specs_keep_a_tuple_of_root_systems():
    # an entry or ambient that is not a RootSystemData, a name included, is
    # an InputError; a list of factors is kept as a tuple, so a spec built
    # from one branches like the builtin
    a1, b2 = build("A1"), build("B2")
    rows = [[1, 0], [1, 1]]
    for bad in (("A1",), "A1", a1, None, [a1, "A1"], (a1, None), (rows,)):
        with pytest.raises(InputError):
            GroupSpec(factors=bad)
        with pytest.raises(InputError):
            EmbeddingSpec(ambient=b2, factors=bad, restriction=rows)
    for bad in ("B2", None, (b2,)):
        with pytest.raises(InputError):
            EmbeddingSpec(ambient=bad, factors=(a1, a1), restriction=rows)
    gs = GroupSpec(factors=[a1])
    assert gs.factors == (a1,)
    assert biinvariant_spectrum(gs, 3) == biinvariant_spectrum(SU2, 3)
    emb = EmbeddingSpec(ambient=b2, factors=[a1, a1], restriction=rows)
    builtin = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
    assert emb.factors == (a1, a1)
    assert branch(emb, (1, 1)) == branch(builtin, (1, 1))
    assert embedding_index(emb) == embedding_index(builtin)


def test_float_scales_and_gamma_rejected():
    # scales and gamma entries are coerced exactly; a float is a domain error
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), scales=(0.5,))
    with pytest.raises(DomainError):
        GroupSpec(factors=(build("A1"),), gamma=(((0.5,),),))
    gs = GroupSpec(factors=(build("A1"),), scales=("1/2",), gamma=((("1/2",),),))
    assert gs.scales == (F(1, 2),) and type(gs.scales[0]) is F
    assert gs.gamma == (((F(1, 2),),),)
    t = biinvariant_spectrum(GroupSpec(factors=(build("A1"),), scales=(1,)), 3)
    assert all(type(e) is F for e, _ in t.entries)
    # weights, Casimir budgets and grid steps are exact too
    a2 = build("A2")
    with pytest.raises(DomainError):
        dominant_weights_up_to(a2, 1.5)
    with pytest.raises(DomainError):
        check_weight(a2, (1.0, 0))
    assert check_weight(a2, (F(1), "0")) == (1, 0)
    m = NatRedMetric(
        emb=BUILTIN_EMBEDDINGS["a1-in-a2-standard"],
        base_scale=1, fiber_scales=(F(1, 2),),
    )
    for steps in (2.7, F(5, 2), "5/2"):
        with pytest.raises(DomainError):
            isolation_scan(m, F(1, 10), steps, 1)


def _random_central_element(rng, factors):
    """Zero or a fundamental coweight (a column of the inverse Cartan
    matrix, in simple-coroot coordinates) on each factor."""
    parts = []
    for f in factors:
        k = rng.randrange(f.rank + 1)
        if k == f.rank:
            parts.append(tuple(F(0) for _ in range(f.rank)))
        else:
            adj, det = linalg.adjugate(f.cartan)
            parts.append(tuple(F(row[k], det) for row in adj))
    return tuple(parts)


def test_biinvariant_spectrum_matches_fraction_reference():
    rng = random.Random(8)
    a1 = build("A1")
    specs = [
        (GroupSpec(factors=(a1, a1), gamma=(((F(1, 2),), (F(1, 2),)),)), 3),
        (GroupSpec(factors=(a1, a1), scales=(F(1, 2), 3)), F(5, 2)),
    ]
    for _ in range(24):
        factors = tuple(
            build(rng.choice(["A1", "A2", "B2", "G2"]))
            for _ in range(rng.randint(1, 3))
        )
        scales = tuple(rng.choice([F(1, 2), 1, F(3, 2), 2]) for _ in factors)
        gamma = tuple(
            _random_central_element(rng, factors)
            for _ in range(rng.randint(0, 2))
        )
        cutoff = F(rng.randint(1, 8), 4)
        specs.append((GroupSpec(factors, gamma, scales), cutoff))
    # a Gamma-quotient of A2 x A2, one of A1^3 by two central elements and
    # a product at unequal scales: each factor's budget is the whole
    # cutoff, so sums of two factors' values pass it and the fold's sorted
    # cut ends rows early
    for spec in (
        '{"factors":["A2","A2"],"gamma":[[["1/3","2/3"],["2/3","1/3"]]]}',
        '{"factors":["A1","A1","A1"],'
        '"gamma":[[["1/2"],["1/2"],["0"]],[["0"],["1/2"],["1/2"]]]}',
        '{"factors":["B2","G2"],"scales":["1/2","3/2"]}',
    ):
        gs = GroupSpec.from_json_dict(json.loads(spec))
        specs += [(gs, cutoff) for cutoff in (6, 9, 12)]
    for gs, cutoff in specs:
        assert biinvariant_spectrum(gs, cutoff) == ref_biinvariant_spectrum(
            gs, cutoff
        ), gs.to_json_dict()


# sha256 of biinvariant_spectrum(...).to_json() for the exceptional types,
# recorded before the Weyl dimensions moved to the coroot ladder and the
# dominant-weight walk to a running Casimir; tables of 91 to 220 entries
EXCEPTIONAL_DIGESTS = {
    ("E8", 10): "6e1807928e5bb2b04130f3599f0cd1d55fa5bf879a139500d0d80088028aab6c",
    ("E7", 10): "5e478a1dd6688e91e8953dcfe6c8189b6ab9dcf28feed91199c7cfd68868f3a3",
    ("F4", 10): "d1a4dcfd3c6668b73ec9938fae863005b812f9fcbd4f6d44a224abb3475f6b58",
    ("F4", 16): "00f81dc83dd5cf9390299c3194daec2c9b6df95c742bf9f1c08eb126823b4356",
}


@pytest.mark.parametrize("name,cutoff", sorted(EXCEPTIONAL_DIGESTS))
def test_exceptional_biinvariant_digests(name, cutoff):
    table = biinvariant_spectrum(GroupSpec(factors=(build(name),)), cutoff)
    digest = hashlib.sha256(table.to_json().encode()).hexdigest()
    assert digest == EXCEPTIONAL_DIGESTS[name, cutoff]
