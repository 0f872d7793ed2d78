import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liespec.branching import EmbeddingSpec, branch
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.errors import (
    CertificationError,
    DomainError,
    InadmissibleMetricError,
    InputError,
    MalformedEmbeddingError,
)
from liespec import natred
from liespec.groups import GroupSpec, biinvariant_spectrum
from liespec.natred import (
    NatRedMetric,
    _metric_budget,
    beta_factors,
    containment_check,
    natred_spectrum,
    normal_quotient_spectrum,
    term_catalogue,
)
from liespec.rootdata import build, casimir, casimir_num
from liespec.spectrum import linear_table

from helpers import (
    dominant_weights_up_to,
    f_map_inverse,
    natred_eigenvalue,
    principal_a1_row,
    ref_natred_spectrum,
    ref_natred_terms,
    ref_normal_quotient_spectrum,
    ref_table,
    weyl_dim,
)

A1 = build("A1")
A2 = build("A2")
STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
SO4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]


def metric(t, t1, emb=STD):
    return NatRedMetric(emb=emb, base_scale=t, fiber_scales=(t1,))


def catalogue_terms(m, cutoff):
    """(eigenvalue, multiplicity) of each row of the metric's catalogue
    with eigenvalue <= cutoff, in the catalogue's order, each row g
    evaluated in Fractions as sum_k g_k / s_k over den and the scales
    s = (t, t_1, ...)."""
    den, rows = term_catalogue(m.emb, _metric_budget(m, F(cutoff)))
    scales = (m.base_scale,) + m.fiber_scales
    evaluated = (
        (sum(g / s for g, s in zip(row, scales)) / den, mult)
        for row, mult in rows
    )
    return [term for term in evaluated if term[0] <= cutoff]


def reference_terms(m, cutoff, value=None):
    """``ref_natred_terms`` merged as the catalogue merges its rows: terms
    with equal c(sigma) and equal fiber Casimirs share a row, placed at
    its first term, with their summed multiplicity.  A row's eigenvalue is
    the reference's own, or ``value(m, sigma, tau)`` of its first term."""
    merged = {}
    for sigma, tau, mult, eig in ref_natred_terms(m, cutoff):
        key = (casimir(m.group, sigma),) + tuple(
            map(casimir, m.emb.factors, tau)
        )
        if key not in merged:
            merged[key] = [eig if value is None else value(m, sigma, tau), 0]
        merged[key][1] += mult
    return [tuple(term) for term in merged.values()]


def test_eigenvalue_closed_form():
    m = metric(1, F(1, 2))
    # c(sigma) + (t/t1 - 1) * c(tau)/j = 4/9 + 1 * (3/8)/(3/2)
    assert natred_eigenvalue(m, (1, 0), ((1,),)) == F(25, 36)
    assert natred_eigenvalue(m, (1, 0), ((0,),)) == F(4, 9)
    assert natred_eigenvalue(m, (1, 1), ((2,),)) == F(5, 3)
    m3 = metric(1, F(1, 3))
    assert natred_eigenvalue(m3, (1, 0), ((1,),)) == F(4, 9) + F(1, 2)


def test_terms_small_table():
    m = metric(1, F(1, 2))
    t = natred_spectrum(m, F(25, 36))
    # both 3-dimensional classes contribute at 4/9 (trivial fiber part)
    # and at 25/36 (doublet fiber part, dim 3 * mult 1 * dim 2 each)
    assert dict(t.entries) == {F(0): 1, F(4, 9): 6, F(25, 36): 12}
    assert t.unit == "raw" and t.complete


def test_terms_agree_with_evaluator():
    rng = random.Random(3)
    for _ in range(6):
        t = F(rng.randint(2, 9), rng.randint(1, 4))
        t1 = t * F(rng.choice([1, 2, 3]), rng.choice([4, 5, 7]))
        m = metric(t, t1)
        terms = catalogue_terms(m, 3)
        assert all(mult > 0 for _, mult in terms)
        assert terms == reference_terms(m, 3, natred_eigenvalue)


def test_terms_match_per_metric_reference():
    # riemannian fibers, oversized fibers and mixed, on every builtin
    scales = [
        (F(1), F(1, 2), 6),
        (F(3, 2), F(1, 3), 5),
        (F(1), F(5, 2), 4),
        (F(2, 3), F(3, 4), 5),
    ]
    checked = 0
    for emb in BUILTIN_EMBEDDINGS.values():
        for t, t1, cutoff in scales:
            fibers = (t1, t1 * F(2, 3))[: len(emb.factors)]
            m = NatRedMetric(
                emb=emb, base_scale=t, fiber_scales=fibers
            )
            terms = catalogue_terms(m, cutoff)
            assert terms == reference_terms(m, cutoff)
            assert natred_spectrum(m, cutoff) == ref_natred_spectrum(
                m, cutoff
            )
            checked += len(terms)
    assert checked > 500


def test_catalogue_serves_metrics_within_its_budget():
    # rows past a metric's own budget lie above its cutoff: one wide
    # catalogue gives the table that the metric's own catalogue gives
    m = metric(1, F(1, 2))
    den, rows = term_catalogue(STD, 12)
    for cutoff in (0, F(1, 3), 2, 6, 12):
        wide = linear_table(rows, den, (F(1), F(1, 2)), F(cutoff))
        assert wide == natred_spectrum(m, cutoff)
    with pytest.raises(DomainError):
        natred_spectrum(m, -1)


# sha256 of repr((den, rows)) of term_catalogue(emb, budget), recorded
# when the K side of the branching still ran on nested per-factor labels:
# the rows' order is their first term's, so it comes from the sorted
# packed keys now and must be the label order
CATALOGUE_DIGESTS = {
    ("a1-in-a2-standard", 12): (
        "273523c4c8f6450666e97885ccc74e1219d2c08276f833663af12e1c0d285d95"
    ),
    ("a1-in-a2-standard", 20): (
        "9ff087be934e19a5c8b97f766b552828fd72c4dec32c100411f0168db0d75389"
    ),
    ("a1-in-a2-principal", 12): (
        "cffbf7a1493b9546193654b48590bbc59a9dde091a58f41d888c58bc70236fc1"
    ),
    ("a1-in-a2-principal", 20): (
        "cc2d5cbdec8e1251e2ab535529bd083ccf9922018d507d44b32da35001265bcd"
    ),
    ("a1xa1-in-b2", 12): (
        "3d98b2528a103b34b41940332a2302f6a0360f0eb57486860743046f7f333dac"
    ),
    ("a1xa1-in-b2", 20): (
        "9777214174eff25238b18c5e5dda278032e27bbe32b6c3c6a927d5a915435318"
    ),
    ("identity-a2", 12): (
        "e746e09fc9bbaa48c5c8d4ab04914a39b1278ea0c7497dee80f376ef8da505fe"
    ),
    ("identity-a2", 20): (
        "b27654b7590dfddc02f60874c759c4bc81de696d2ed5fa2661ee9c9e5bf92b57"
    ),
    ("principal-a1-in-g2", 12): (
        "37a53f56fdd8c59bcbaa51bc152f5bb0f1823379656c78523cc6ec98526e9d62"
    ),
    ("principal-a1-in-g2", 20): (
        "d695c04f0d4887906b059f30c9eac10f01ee379533b1daa96a2c57149e39d075"
    ),
}


def test_catalogue_rows_and_their_order_are_pinned():
    g2 = build("G2")
    embeddings = dict(BUILTIN_EMBEDDINGS, **{
        "principal-a1-in-g2": EmbeddingSpec(
            g2, (A1,), (principal_a1_row(g2),)
        ),
    })
    seen = {}
    for (name, budget) in CATALOGUE_DIGESTS:
        emb = embeddings[name]
        fresh = EmbeddingSpec(emb.ambient, emb.factors, emb.restriction)
        text = repr(term_catalogue(fresh, budget))
        seen[name, budget] = hashlib.sha256(text.encode()).hexdigest()
    assert seen == CATALOGUE_DIGESTS


def test_full_group_fiber_collapses_to_biinvariant():
    rng = random.Random(41)
    for _ in range(5):
        s = F(rng.randint(1, 8), rng.randint(1, 5))
        t = s + F(rng.randint(1, 4), rng.randint(1, 3))
        m = NatRedMetric(
            emb=IDA2, base_scale=t, fiber_scales=(s,)
        )
        ref = biinvariant_spectrum(
            GroupSpec(factors=(A2,), scales=(s,)), 5
        )
        assert natred_spectrum(m, 5).entries == ref.entries


def test_trivial_subgroup_collapses_to_biinvariant():
    from liespec.branching import EmbeddingSpec, branch

    emb = EmbeddingSpec(ambient=A2, factors=(), restriction=())
    m = NatRedMetric(emb=emb, base_scale=F(1, 2), fiber_scales=())
    ref = biinvariant_spectrum(
        GroupSpec(factors=(A2,), scales=(F(1, 2),)), 5
    )
    assert natred_spectrum(m, 5).entries == ref.entries


def test_beta_factors():
    assert beta_factors(metric(1, F(1, 2))) == (F(1),)
    assert beta_factors(metric(1, F(1, 3))) == (F(1, 2),)
    assert beta_factors(metric(1, 2)) == (F(-2),)
    m = NatRedMetric(
        emb=SO4, base_scale=1, fiber_scales=(F(1, 2), F(1, 3))
    )
    assert beta_factors(m) == (F(1), F(1, 2))


def test_f_map_frozen_and_errors():
    # the beta factors are a_i -> a_i b / (b - a_i) at the shift b = t
    m = NatRedMetric(emb=SO4, base_scale=1, fiber_scales=(F(1, 2), F(1, 3)))
    assert beta_factors(m) == (F(1), F(1, 2))
    assert f_map_inverse(beta_factors(m), 1) == m.fiber_scales
    # the containment step needs the shift above every fiber scale
    for fibers in ((F(1, 2), 2), (F(1, 2), F(3, 2))):
        with pytest.raises(InadmissibleMetricError, match="base-scale shift"):
            containment_check(NatRedMetric(SO4, 1, fibers), 0, 4)
    with pytest.raises(InadmissibleMetricError, match="equal to base scale"):
        NatRedMetric(SO4, 1, (F(1, 2), 1))
    with pytest.raises(InadmissibleMetricError):
        f_map_inverse(m.fiber_scales, 0)
    with pytest.raises(DomainError):
        NatRedMetric(SO4, 1, (F(1, 2), 0))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(1, 30),
    st.integers(1, 12),
)
def test_f_map_round_trip(an, ad, bn, bd):
    a = F(an, ad)
    b = F(bn, bd)
    if b <= a:  # the metric refuses a == b, the containment step a > b
        with pytest.raises(InadmissibleMetricError):
            containment_check(metric(b, a), 0, 0)
        return
    assert f_map_inverse(beta_factors(metric(b, a)), b) == (a,)
    # every fiber scale below b is the image of a positive beta factor
    assert beta_factors(metric(b, f_map_inverse((a,), b)[0])) == (a,)


def test_mode_classification():
    assert metric(1, F(1, 2)).mode == "riemannian-fibers"
    assert metric(1, 3).mode == "semi-riemannian"
    mixed = NatRedMetric(
        emb=SO4, base_scale=1, fiber_scales=(F(1, 2), 3)
    )
    assert mixed.mode == "semi-riemannian"


def test_semi_riemannian_tables_complete_and_nonnegative():
    m = metric(1, 2)
    small = natred_spectrum(m, 2)
    assert small.complete
    assert all(e >= 0 for e, _ in small.entries)
    # re-enumerating with a larger cutoff finds nothing new below 2
    big = natred_spectrum(m, 6)
    assert tuple((e, k) for e, k in big.entries if e <= 2) == small.entries


def test_riemannian_fibers_tables_complete():
    m = metric(1, F(1, 3))
    small = natred_spectrum(m, F(3, 2))
    big = natred_spectrum(m, 5)
    below = tuple((e, k) for e, k in big.entries if e <= F(3, 2))
    assert below == small.entries


def test_equal_scales_rejected():
    with pytest.raises(InadmissibleMetricError):
        metric(1, 1)
    with pytest.raises(InadmissibleMetricError):
        NatRedMetric(
            emb=SO4, base_scale=2, fiber_scales=(F(1, 2), 2)
        )


def test_metric_validation():
    with pytest.raises(DomainError):
        metric(0, F(1, 2))
    with pytest.raises(DomainError):
        metric(1, -1)
    with pytest.raises(DomainError):
        NatRedMetric(emb=STD, base_scale=1, fiber_scales=())
    # G is the embedding's ambient: no argument names it, and JSON that
    # declares another group is refused
    assert metric(1, F(1, 2)).group is A2
    with pytest.raises(TypeError):
        NatRedMetric(group=A2, emb=STD, base_scale=1, fiber_scales=(1,))
    obj = {"group": "B2", "embedding": "a1-in-a2-standard", "t": "1",
           "t_i": ["1/2"]}
    with pytest.raises(DomainError, match="ambient type != metric group"):
        NatRedMetric.from_json_dict(obj)
    assert NatRedMetric.from_json_dict(dict(obj, group="A2")).emb is STD
    # an embedding is an EmbeddingSpec, not its name
    with pytest.raises(InputError):
        NatRedMetric(emb="a1xa1-in-b2", base_scale=1, fiber_scales=("1/2", 2))


def test_containment_witnessed():
    report = containment_check(metric(1, F(1, 2)), 0, 8)
    assert report["status"] == "witnessed"
    assert report["zeta"] == F(4, 9)
    assert report["gamma"] == F(1, 4)
    assert report["value"] == F(25, 36)
    assert report["multiplicity"] == 12
    report = containment_check(metric(1, F(1, 3)), 0, 8)
    assert report["status"] == "witnessed"
    assert report["gamma"] == F(1, 2)
    assert report["value"] == F(17, 18)


def test_containment_witness_is_the_dual_of_its_branch_label():
    # -w0 is the identity on A1 but swaps the coordinates of A2: the
    # witness tau = ((1, 0),) is found where the branch label is ((0, 1),)
    report = containment_check(metric(1, F(1, 2), IDA2), 0, 8)
    assert report == {
        "status": "witnessed",
        "factor": 0,
        "sigma": (0, 1),
        "tau": ((1, 0),),
        "zeta": F(4, 9),
        "gamma": F(4, 9),
        "value": F(8, 9),
        "multiplicity": 18,
    }


def test_containment_fails_on_a_table_without_its_witness(monkeypatch):
    # a full table injected without the witnessed eigenvalue: the check
    # reports failed with multiplicity 0, not witnessed
    m = metric(1, F(1, 2))
    value = containment_check(m, 0, 8)["value"]
    real = natred.linear_table

    def without_witness(rows, den, scales, cutoff):
        table = real(rows, den, scales, cutoff)
        below = [(e, k) for e, k in table.entries if e < value]
        return ref_table("raw", value - F(1, 10**6), below)

    monkeypatch.setattr(natred, "linear_table", without_witness)
    report = containment_check(m, 0, 8)
    assert (report["status"], report["multiplicity"]) == ("failed", 0)
    assert report["value"] == value


def test_horizontal_positivity_raises_in_process(monkeypatch):
    # a Killing ratio that breaks horizontal positivity: the check is a
    # raise, so this test also fails under python -O, which strips every
    # assert, if the check is gone
    monkeypatch.setattr(
        natred, "killing_ratio",
        lambda emb: tuple(F(1, 100) for _ in emb.factors),
    )
    with pytest.raises(CertificationError, match="horizontal positivity"):
        natred_spectrum(metric(1, F(1, 2)), 1)


def test_containment_edge_cases():
    from liespec.branching import EmbeddingSpec, branch

    emb = EmbeddingSpec(ambient=A2, factors=(), restriction=())
    m0 = NatRedMetric(emb=emb, base_scale=1, fiber_scales=())
    assert containment_check(m0, 0, 4)["status"] == "vacuous"
    with pytest.raises(InadmissibleMetricError, match="base-scale shift"):
        containment_check(metric(1, 2), 0, 4)
    with pytest.raises(DomainError):
        containment_check(metric(1, F(1, 2)), 5, 4)
    with pytest.raises(DomainError):
        containment_check(metric(1, F(1, 2)), 0, -1)
    tiny = containment_check(metric(1, F(1, 2)), 0, F(1, 8))
    assert tiny["status"] == "inconclusive"
    assert tiny["detail"] == "fiber eigenvalue already exceeds the cutoff"
    # gamma = 1/4 is within the cutoff, but every sigma whose restriction
    # holds the witness has c(sigma) > (cutoff - gamma) * t = 0
    none = containment_check(metric(1, F(1, 2)), 0, F(1, 4))
    assert none["status"] == "inconclusive" and none["gamma"] == F(1, 4)
    assert none["detail"] == "no restriction witness below the cutoff"


def test_containment_reads_the_factor_index_exactly():
    # read with exact_int: a string of digits names that factor, while a
    # bool, a float or a non-integer names none, also on a vacuous metric
    m = metric(1, F(1, 2))
    report = containment_check(m, 0, 8)
    assert containment_check(m, "0", 8) == report
    assert type(containment_check(m, "0", 8)["factor"]) is int
    from liespec.branching import EmbeddingSpec, branch

    emb = EmbeddingSpec(ambient=A2, factors=(), restriction=())
    m0 = NatRedMetric(emb=emb, base_scale=1, fiber_scales=())
    for subject in (m, m0):
        for bad in (True, False, 0.0, 1.0):
            with pytest.raises(InputError):
                containment_check(subject, bad, 8)
        for bad in (F(1, 2), "1/2"):
            with pytest.raises(DomainError):
                containment_check(subject, bad, 8)


def test_json_round_trip():
    m = NatRedMetric(
        emb=SO4, base_scale=F(3, 2), fiber_scales=(F(1, 2), F(1, 3))
    )
    back = NatRedMetric.from_json_dict(m.to_json_dict())
    assert back.group is m.group
    assert back.base_scale == m.base_scale
    assert back.fiber_scales == m.fiber_scales
    named = NatRedMetric.from_json_dict(
        {"group": "A2", "embedding": "a1-in-a2-standard", "t": "1",
         "t_i": ["1/2"]}
    )
    assert named.emb is STD


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([F(1, 4), F(1, 2), F(2, 3), F(3, 2), F(3), F(5)]))
def test_spectrum_nonnegative_all_modes(t1):
    m = metric(1, t1)
    table = natred_spectrum(m, 2)
    assert all(e >= 0 for e, _ in table.entries)
    assert table.multiplicity(F(0)) == 1


def test_an_inline_embedding_is_freed_with_its_metric():
    # branchings live on the embedding, and no module-level cache keeps an
    # embedding alive, so a metric read from inline JSON frees its
    # embedding and every branching made for it
    m = NatRedMetric.from_json_dict({
        "group": "B2",
        "embedding": SO4.to_json_dict(),
        "t": "1",
        "t_i": ["1/2", "1/3"],
    })
    natred_spectrum(m, 6)
    emb = weakref.ref(m.emb)
    assert emb() is not SO4 and emb()._branchings
    del m
    gc.collect()
    assert emb() is None


# A cold natred-spectrum of A1xA1<B2 on an embedding of its own, with
# every call of the public weight gate (check_weight) and of the unchecked
# diagram core counted by its caller's name.
_COLD_RUN_SCRIPT = """
import json, sys
from collections import Counter
from liespec import rootdata, weights
from liespec.branching import EmbeddingSpec, branch
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.natred import NatRedMetric, natred_spectrum

b = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
emb = EmbeddingSpec(b.ambient, b.factors, b.restriction)
names = {rootdata.check_weight.__code__: "check_weight",
         weights._weight_diagram.__code__: "_weight_diagram"}
calls = Counter()

def profile(frame, event, arg):
    if event == "call" and frame.f_code in names:
        calls[f"{names[frame.f_code]} from {frame.f_back.f_code.co_name}"] += 1

sys.setprofile(profile)
natred_spectrum(NatRedMetric(emb, 1, ("1/2", "1/3")), 20)
sys.setprofile(None)
print(json.dumps(calls))
"""


def test_a_cold_run_checks_only_the_weights_that_come_in():
    # a fresh process, so no memo is warm: the K-type and branching
    # dimensions come from the unchecked Weyl dimension core, the weight
    # diagrams of G's tensor memo (one per fundamental weight of B2) and of
    # the peel's restricted weights (0, the adjoint and the fundamentals)
    # from the unchecked diagram core, one per weight, and the gate sees
    # no weight: each one comes from the walk or is the adjoint's highest
    # root
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    assert json.loads(proc.stdout) == {
        "_weight_diagram from _diagram": 2,
        "_weight_diagram from _weights": 4,
    }


def test_normal_quotient_identity_is_point():
    emb = BUILTIN_EMBEDDINGS["identity-a2"]
    t = normal_quotient_spectrum(emb, 1, 10)
    assert t.entries == ((F(0), 1),)


def test_normal_quotient_sphere():
    # SU(3)/SU(2) with the normal metric: spherical reps (a, b) both
    # contribute; smallest nonzero eigenvalue comes from the two
    # 3-dimensional representations
    emb = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
    t = normal_quotient_spectrum(emb, 1, F(4, 9))
    assert t.entries == ((F(0), 1), (F(4, 9), 6))
    # total multiplicity of eigenvalue c should be dim * fixed-dim
    full = normal_quotient_spectrum(emb, 1, 2)
    assert full.multiplicity(F(1)) == weyl_dim(build("A2"), (1, 1)) * 1


def _fresh(emb):
    """The same embedding with none of its branchings made yet."""
    return EmbeddingSpec(emb.ambient, emb.factors, emb.restriction, emb.name)


def test_normal_quotient_is_independent_of_the_branching_memo():
    trivial = EmbeddingSpec(ambient=build("B2"), factors=(), restriction=())
    t, cutoff = F(3, 2), 4
    for emb in (*BUILTIN_EMBEDDINGS.values(), trivial):
        group = emb.ambient
        fresh = normal_quotient_spectrum(_fresh(emb), t, cutoff)
        # every weight of the walk already branched by the catalogue
        catalogued = _fresh(emb)
        term_catalogue(catalogued, cutoff * t)
        # the walk's last weight peeled alone before the walk reaches it
        peeled = _fresh(emb)
        weights = dominant_weights_up_to(group, cutoff * t)
        branch(peeled, max(weights, key=lambda lam: casimir_num(group, lam)))
        assert fresh == ref_normal_quotient_spectrum(emb, t, cutoff), emb.name
        for made in (catalogued, peeled):
            assert normal_quotient_spectrum(made, t, cutoff) == fresh


def test_normal_quotient_takes_its_ambient_from_the_embedding():
    emb = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
    # G is the embedding's ambient: no argument can name another
    with pytest.raises(TypeError):
        normal_quotient_spectrum(build("A2"), emb, 1, 1)
    with pytest.raises(DomainError):
        normal_quotient_spectrum(emb, 0, 1)


def test_normal_quotient_matches_fraction_reference():
    # the builtins, the principal A1 in G2 and a trivial K, where every
    # K-type of the catalogue is the trivial one
    embeddings = (
        *BUILTIN_EMBEDDINGS.values(),
        EmbeddingSpec(build("G2"), (build("A1"),), [[6, 10]], "a1-in-g2"),
        EmbeddingSpec(build("B2"), (), (), "trivial-in-b2"),
    )
    for emb in embeddings:
        for t in (1, F(3, 2)):
            table = normal_quotient_spectrum(emb, t, 3)
            assert table == ref_normal_quotient_spectrum(emb, t, 3), emb.name


def test_normal_quotient_refuses_what_the_catalogue_refuses():
    # the quotient is read from the term catalogue, so an embedding of
    # index 0, which is no subgroup, and a restriction that is not integral
    # on the adjoint are refused, as natred_spectrum refuses them
    null = EmbeddingSpec(build("B2"), (build("A1"),), [[0, 0]])
    half = EmbeddingSpec(build("A2"), (build("A1"),), [["1/2", "1/2"]])
    for emb, cutoff in ((null, 1), (half, 0)):
        with pytest.raises(MalformedEmbeddingError):
            normal_quotient_spectrum(emb, 1, cutoff)
