"""Acceptance gate: ten exact criteria, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact rational equality, zero tolerance.
"""

import random
import time
from fractions import Fraction as F

import pytest

from helpers import (
    box_oracle_spectrum,
    f_map_inverse,
    random_rational_basis,
    value_set,
    volume,
    weyl_dim,
)
from liespec.branching import branch, embedding_index
from liespec.catalog import (
    BUILTIN_EMBEDDINGS,
    BUILTIN_GROUPS,
    BUILTIN_LATTICES,
)
from liespec.errors import InadmissibleMetricError
from liespec.groups import GroupSpec, biinvariant_spectrum
from liespec.isolation import gamma_invariants, isolation_scan, torus_search
from liespec.lattices import (
    Lattice,
    congruent,
    dual,
    systole,
    torus_lambda1,
    torus_spectrum,
)
from liespec.natred import (
    NatRedMetric,
    beta_factors,
    containment_check,
    natred_spectrum,
)
from liespec.rootdata import build

A1 = build("A1")
A2 = build("A2")
STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
PRINC = BUILTIN_EMBEDDINGS["a1-in-a2-principal"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]
Z2 = BUILTIN_LATTICES["identity2"]


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_torus_oracle_equivalence():
    rng = random.Random(20260816)
    for i in range(200):
        m = rng.randint(1, 4)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        table = torus_spectrum(lat, F(50))
        assert dict(table.entries) == box_oracle_spectrum(lat, F(50))
        lam1 = torus_lambda1(lat)
        assert lam1 == systole(dual(lat))
        assert table.lambda1() == lam1
    report(1, "200 random lattices (m <= 4) match the box oracle at "
              "cutoff 50; lambda1 equals the dual systole every time")


def test_criterion_02_casimir_ground_truth():
    su2 = biinvariant_spectrum(BUILTIN_GROUPS["su2"], 10)
    closed_form = {F(n * (n + 2), 8): (n + 1) ** 2 for n in range(9)}
    assert dict(su2.entries) == closed_form
    su3 = biinvariant_spectrum(BUILTIN_GROUPS["su3"], 1)
    assert su3.lambda1() == F(4, 9)
    assert su3.multiplicity(F(4, 9)) == 18
    report(2, "SU(2) table equals n(n+2)/8 with mult (n+1)^2 up to 10; "
              "SU(3) lambda1 = 4/9 with multiplicity 18")


def test_criterion_03_quotient_filter():
    so3 = biinvariant_spectrum(BUILTIN_GROUPS["so3"], 10)
    even_only = {F(n * (n + 2), 8): (n + 1) ** 2 for n in range(0, 9, 2)}
    assert dict(so3.entries) == even_only
    assert so3.lambda1() == 1 and so3.multiplicity(F(1)) == 9
    su2 = biinvariant_spectrum(BUILTIN_GROUPS["su2"], 10)
    assert set(so3.entries) <= set(su2.entries)
    report(3, "SO(3) keeps exactly the even classes (lambda1 = 1, mult 9) "
              "and its table embeds in the SU(2) table at cutoff 10")


def test_criterion_04_degenerate_collapses():
    rng = random.Random(404)
    for _ in range(3):
        s = F(rng.randint(1, 6), rng.randint(2, 5))
        t = s + F(rng.randint(1, 3), rng.randint(1, 4))
        ref = biinvariant_spectrum(GroupSpec(factors=(A2,), scales=(s,)), 10)
        full = NatRedMetric(
            emb=IDA2, base_scale=t, fiber_scales=(s,)
        )
        assert natred_spectrum(full, 10).entries == ref.entries

        from liespec.branching import EmbeddingSpec

        empty = EmbeddingSpec(ambient=A2, factors=(), restriction=())
        m0 = NatRedMetric(
            emb=empty, base_scale=s, fiber_scales=()
        )
        assert natred_spectrum(m0, 10).entries == ref.entries
    report(4, "K = G and trivial-K metrics collapse to scaled bi-invariant "
              "tables at cutoff 10 for three random rational scales")


def test_criterion_05_branching_correctness():
    assert dict(branch(STD, (1, 0)).terms) == {((1,),): 1, ((0,),): 1}
    assert dict(branch(STD, (1, 1)).terms) == {
        ((2,),): 1, ((1,),): 2, ((0,),): 1,
    }
    rng = random.Random(55)
    seen = 0
    while seen < 50:
        sigma = (rng.randint(0, 25), rng.randint(0, 25))
        if weyl_dim(A2, sigma) > 2000:
            continue
        seen += 1
        total = sum(
            mult * weyl_dim(A1, tup[0])
            for tup, mult in branch(STD, sigma).terms
        )
        assert total == weyl_dim(A2, sigma)
    assert embedding_index(STD) == (F(1),)
    assert embedding_index(PRINC) == (F(4),)
    report(5, "3 -> 2+1 and 8 -> 3+2+2+1 exactly; dimension identity on 50 "
              "random weights (dim <= 2000); indices 1 and 4")


def test_criterion_06_containment_lemma():
    for t1 in (F(1, 2), F(1, 3)):
        m = NatRedMetric(
            emb=STD, base_scale=1, fiber_scales=(t1,)
        )
        rep = containment_check(m, 0, 8)
        assert rep["status"] == "witnessed"
        table = natred_spectrum(m, 8)
        assert table.multiplicity(rep["value"]) == rep["multiplicity"] > 0
        assert rep["value"] == rep["zeta"] + rep["gamma"]
    report(6, "zeta + gamma lands inside the truncated spectrum at cutoff 8 "
              "for fiber scales 1/2 and 1/3")


def test_criterion_07_f_map_round_trip():
    # the beta factors are the map a -> a b / (b - a) at the shift b = t,
    # which the containment step admits only with every fiber below t
    rng = random.Random(777)
    admissible = 0
    rejected = 0
    while admissible < 1000:
        a = F(rng.randint(1, 60), rng.randint(1, 24))
        b = F(rng.randint(1, 60), rng.randint(1, 24))
        if b <= a:  # the metric refuses a == b, the check a > b
            with pytest.raises(InadmissibleMetricError):
                containment_check(NatRedMetric(STD, b, (a,)), 0, 0)
            rejected += 1
            continue
        m = NatRedMetric(emb=STD, base_scale=b, fiber_scales=(a,))
        assert f_map_inverse(beta_factors(m), b) == (a,)
        admissible += 1
    assert rejected > 0
    report(7, f"1000 admissible pairs round-trip exactly; "
              f"{rejected} inadmissible pairs rejected")


def test_criterion_08_isolation_scan():
    m = NatRedMetric(
        emb=STD, base_scale=1, fiber_scales=(F(1, 2),)
    )
    reportd = isolation_scan(m, F(1, 10), 9, 6)
    assert reportd["grid"]["steps"] == 9
    assert reportd["grid"]["points"] == 81  # 9 per axis, base + one fiber
    assert reportd["isospectral_neighbors"] == []
    assert reportd["min_table_distance"] >= 1
    report(8, "radius-1/10 grid with 9 steps per scale axis: zero "
              "isospectral neighbors at cutoff 6, min distance >= 1")


def test_criterion_09_torus_finiteness():
    start = time.monotonic()
    values = value_set(gamma_invariants(Z2))
    assert values == (F(1), F(2))
    found = torus_search(values, 2, F(1, 2), F(1, 2))
    assert any(congruent(lat, Z2) for lat in found)
    tables = [torus_spectrum(lat, 20) for lat in found]
    for i in range(len(found)):
        for k in range(i + 1, len(found)):
            # list is congruence-deduped, so equal tables would exhibit
            # isospectral non-congruent tori; none may exist here
            assert tables[i].entries != tables[k].entries
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(9, f"search over E = {{1, 2}} returned {len(found)} tori "
              f"including Z^2, pairwise distinct at cutoff 20, "
              f"in {elapsed:.1f}s")


def test_criterion_10_homothety_invariant():
    rng = random.Random(10)
    basis = random_rational_basis(rng, 3)
    lat = Lattice.from_basis(basis)
    vol = volume(lat)
    invariants = set()
    for r in (F(1), F(2), F(3), F(1, 2), F(5)):
        scaled = Lattice.from_basis(
            tuple(tuple(r * x for x in row) for row in basis)
        )
        lam1 = torus_spectrum(scaled, torus_lambda1(scaled)).lambda1()
        # lambda1^(3/2) vol is irrational: its square is exact
        invariants.add(lam1**3 * (vol * r**3) ** 2)
    assert len(invariants) == 1

    group_invariants = set()
    for r in (F(1), F(2), F(3), F(1, 2), F(5)):
        t = r * r
        table = biinvariant_spectrum(
            GroupSpec(factors=(A1,), scales=(t,)), F(3, 8) / t
        )
        group_invariants.add(table.lambda1() ** 3 * (r**3) ** 2)
    assert group_invariants == {F(27, 512)}
    report(10, "lambda1^3 * vol^2 constant across 5 homothety scales for a "
               "random 3-torus and for SU(2)")
