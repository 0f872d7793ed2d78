import gc
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

from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.errors import (
    CertificationError,
    DomainError,
    InadmissibleMetricError,
    InputError,
)
from liespec import natred
from liespec.groups import GroupSpec, biinvariant_spectrum
from liespec.natred import (
    BiInvariantOperator,
    NatRedMetric,
    beta_factors,
    containment_check,
    f_map,
    natred_spectrum,
    natred_terms,
    term_catalogue,
)
from liespec.rootdata import build
from liespec.spectrum import linear_table

from helpers import (
    f_map_inverse,
    natred_eigenvalue,
    ref_natred_spectrum,
    ref_natred_terms,
    ref_table,
)

A1 = build("A1")
A2 = build("A2")
STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
SO4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]


def metric(t, t1, emb=STD):
    return NatRedMetric(emb=emb, base_scale=t, fiber_scales=(t1,))


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
        for sigma, tau, mult, eig in natred_terms(m, 3):
            assert mult > 0
            assert natred_eigenvalue(m, sigma, tau) == eig


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
            terms = natred_terms(m, cutoff)
            assert terms == ref_natred_terms(m, cutoff)
            assert natred_spectrum(m, cutoff) == ref_natred_spectrum(
                m, cutoff
            )
            checked += len(terms)
    assert checked > 500


def test_catalogue_serves_metrics_within_its_budget():
    # rows past a metric's own budget lie above its cutoff: one wide
    # catalogue gives the table that the metric's own catalogue gives
    m = metric(1, F(1, 2))
    den, _, rows = term_catalogue(STD, 12)
    for cutoff in (0, F(1, 3), 2, 6, 12):
        wide = linear_table(rows, den, (F(1), F(1, 2)), F(cutoff))
        assert wide == natred_spectrum(m, cutoff)
    with pytest.raises(DomainError):
        natred_spectrum(m, -1)


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
    from liespec.branching import EmbeddingSpec

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
    op = BiInvariantOperator(coeffs=(F(1, 2), F(1, 3)))
    out = f_map(op, 1)
    assert out.coeffs == (F(1), F(1, 2))
    back = f_map_inverse(out, 1)
    assert back.coeffs == op.coeffs
    with pytest.raises(InadmissibleMetricError):
        f_map(op, F(1, 2))  # shift not above every coefficient
    with pytest.raises(InadmissibleMetricError):
        f_map_inverse(op, 0)
    with pytest.raises(DomainError):
        BiInvariantOperator(coeffs=(F(0),))


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
    op = BiInvariantOperator(coeffs=(a,))
    if b <= a:
        with pytest.raises(InadmissibleMetricError):
            f_map(op, b)
        return
    assert f_map_inverse(f_map(op, b), b).coeffs == (a,)
    assert f_map(f_map_inverse(op, b), b).coeffs == (a,)


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
        natred_terms(metric(1, F(1, 2)), 1)


def test_containment_edge_cases():
    from liespec.branching import EmbeddingSpec

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
    from liespec.branching import EmbeddingSpec

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
# every call of the public weight gate (check_weight) and of weyl_dim
# counted by its caller's name.
_COLD_RUN_SCRIPT = """
import json, sys
from collections import Counter
from liespec import rootdata, weights
from liespec.branching import EmbeddingSpec
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.natred import NatRedMetric, natred_spectrum

b = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
emb = EmbeddingSpec(b.ambient, b.factors, b.restriction)
names = {rootdata.check_weight.__code__: "check_weight",
         weights.weyl_dim.__code__: "weyl_dim",
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
    # diagrams of the tensor memo and the peel from the unchecked diagram
    # core, one per weight, and the gate sees only the adjoint that branch
    # is handed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    assert json.loads(proc.stdout) == {
        "check_weight from check_dominant": 1,
        "_weight_diagram from _diagram": 4,
        "_weight_diagram from _peel": 4,
    }
