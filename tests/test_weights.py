import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liespec import weights
from liespec.errors import DomainError
from liespec.rootdata import build, casimir, casimir_num
from liespec.weights import _dominant_casimirs, _pairing_field, weight_diagram

from helpers import (
    dominant_character,
    dominant_weights_up_to,
    form_value,
    kostant_character,
    ref_contragredient,
    weyl_dim,
)


def test_weyl_dim_classical():
    a2 = build("A2")
    assert weyl_dim(a2, (0, 0)) == 1
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (2, 0)) == 6
    assert weyl_dim(a2, (3, 0)) == 10
    assert weyl_dim(a2, (2, 1)) == 15
    assert weyl_dim(a2, (2, 2)) == 27
    assert weyl_dim(build("B2"), (1, 1)) == 16
    assert weyl_dim(build("G2"), (1, 1)) == 64
    a1 = build("A1")
    for n in range(12):
        assert weyl_dim(a1, (n,)) == n + 1
    for lam in ((-1, 0), (1,), (0, 0, 0)):  # not dominant, wrong lengths
        with pytest.raises(DomainError):
            weyl_dim(a2, lam)


def test_dominant_characters_frozen():
    assert dominant_character(build("A1"), (4,)) == (
        ((0,), 1),
        ((2,), 1),
        ((4,), 1),
    )
    assert dominant_character(build("A2"), (1, 1)) == (
        ((0, 0), 2),
        ((1, 1), 1),
    )
    # adjoint of so(5): zero weight twice, short and long root orbits once
    assert dominant_character(build("B2"), (0, 2)) == (
        ((0, 0), 2),
        ((0, 2), 1),
        ((1, 0), 1),
    )
    assert dominant_character(build("G2"), (0, 1)) == (
        ((0, 0), 2),
        ((0, 1), 1),
        ((1, 0), 1),
    )
    # the weight is checked before the cache: lists and strings hit it too
    a2 = build("A2")
    char = dominant_character(a2, (1, 0))
    assert dominant_character(a2, [1, 0]) is char
    assert dominant_character(a2, ("1", "0")) is char
    with pytest.raises(DomainError, match="dominant highest weight"):
        dominant_character(a2, (1, -1))


def test_weight_diagram_small():
    # sorted (weight, multiplicity) pairs, like dominant_character
    d = weight_diagram(build("A2"), (1, 0))
    assert d == (((-1, 1), 1), ((0, -1), 1), ((1, 0), 1))
    d = weight_diagram(build("A1"), (3,))
    assert dict(d) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    d = weight_diagram(build("A2"), (1, 1))
    assert d == tuple(sorted(d)) and dict(d)[(0, 0)] == 2
    assert sum(m for _, m in d) == 8


def test_zero_weight_multiplicity_adjoint_is_rank():
    for name in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"):
        rs = build(name)
        d = weight_diagram(rs, rs.highest_root)
        assert dict(d)[tuple(0 for _ in range(rs.rank))] == rs.rank


def test_dominant_weights_up_to():
    a1 = build("A1")
    assert dominant_weights_up_to(a1, 10) == [(n,) for n in range(9)]
    assert dominant_weights_up_to(a1, F(-1)) == []
    assert dominant_weights_up_to(a1, 0) == [(0,)]
    a2 = build("A2")
    assert dominant_weights_up_to(a2, F(4, 9)) == [(0, 0), (0, 1), (1, 0)]
    got = dominant_weights_up_to(a2, 3)
    assert all(casimir(a2, w) <= 3 for w in got)
    # completeness: brute force over a box that surely contains everything
    box = [
        (i, j)
        for i in range(8)
        for j in range(8)
        if casimir(a2, (i, j)) <= 3
    ]
    assert sorted(got) == sorted(box)
    # graded ordering
    assert got == sorted(got, key=lambda w: (sum(w), w))


def test_contragredient_diagram_is_negated():
    rng = random.Random(7)
    for name in ("A2", "A3", "B2", "G2"):
        rs = build(name)
        for _ in range(4):
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            dual = ref_contragredient(rs, lam)
            d = dict(weight_diagram(rs, lam))
            dd = dict(weight_diagram(rs, dual))
            assert dd == {tuple(-x for x in mu): m for mu, m in d.items()}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "B2", "G2", "A3"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
def test_diagram_total_matches_weyl_dim(name, lam3):
    rs = build(name)
    lam = lam3[: rs.rank]
    d = weight_diagram(rs, lam)
    assert sum(m for _, m in d) == weyl_dim(rs, lam)
    assert dict(d)[lam] == 1  # highest weight occurs exactly once


def test_weight_diagram_checks_its_total_against_weyl_dim(monkeypatch):
    # orbits cut down to their dominant weight leave the character short of
    # dim V; the check is a raise, so this also fails under python -O
    monkeypatch.setattr(weights, "_orbit", lambda cartan, mu: (mu,))
    with pytest.raises(DomainError, match="character total"):
        weight_diagram(build("A1"), (1,))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2"]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_weights_lie_below_highest(name, lam):
    # every weight of V_lam has casimir norm at most that of lam
    rs = build(name)
    top = form_value(rs.form, lam, lam)
    for mu, _ in weight_diagram(rs, lam):
        assert form_value(rs.form, mu, mu) <= top


def test_characters_match_kostants_multiplicity_formula():
    # every dominant weight below a small Casimir budget, and one larger
    # weight on B2, against Kostant's formula (tests/helpers.py), which
    # shares no code with Freudenthal's recursion or the chamber walk
    cases = [("A2", 8), ("B2", 8), ("G2", 8), ("A3", F(5, 2)),
             ("B3", F(5, 2)), ("C3", F(5, 2))]
    for name, budget in cases:
        rs = build(name)
        for lam in dominant_weights_up_to(rs, budget):
            assert dominant_character(rs, lam) == kostant_character(rs, lam), (
                name, lam
            )
    b2 = build("B2")
    assert dominant_character(b2, (40, 40)) == kostant_character(b2, (40, 40))


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_freudenthal_reaches_every_dominant_weight_below_the_highest():
    # every dominant mu with lam - mu in the root cone is a weight of V_lam
    # (Humphreys 21.3), so the character's support is the box-and-cone
    # filter of tests/helpers.py, which shares no code with the search
    # from lam that subtracts positive roots
    from helpers import _dominant_candidates

    cases = [
        (name, lam)
        for name in ALL_TYPES
        for lam in dominant_weights_up_to(build(name), 2)
    ]
    assert len(cases) == 393
    for name, lam in cases + [("B2", (40, 40)), ("G2", (10, 10))]:
        rs = build(name)
        support = [mu for mu, _ in dominant_character(rs, lam)]
        cone = sorted(mu for mu, _ in _dominant_candidates(rs, lam))
        assert support == cone, (name, lam)


def test_integer_tables_match_fraction_reference():
    from helpers import (
        ref_casimir,
        ref_dominant_character,
        ref_ip_norm,
        ref_weyl_dim,
    )

    rng = random.Random(2024)
    for name in ALL_TYPES:
        rs = build(name)
        for _ in range(12):
            lam = tuple(rng.randint(0, 4) for _ in range(rs.rank))
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert weyl_dim(rs, lam) == ref_weyl_dim(rs, lam)
            assert casimir(rs, lam) == ref_casimir(rs, lam)
            # the normalized and the Killing-dual form from one integer form
            assert F(form_value(rs.form, lam, mu), rs.form_den) == ref_ip_norm(
                rs, lam, mu
            )
            assert F(
                form_value(rs.form, mu, lam), rs.casimir_den
            ) == ref_ip_norm(rs, mu, lam) / (2 * rs.dual_coxeter)
        # characters: distinct sparse nonzero weights, small enough for
        # the Fraction reference
        seen = set()
        for _ in range(200):
            lam = tuple(
                rng.randint(1, 2) if rng.random() < 1.5 / rs.rank else 0
                for _ in range(rs.rank)
            )
            if not any(lam) or lam in seen or weyl_dim(rs, lam) > 4000:
                continue
            seen.add(lam)
            got = dominant_character(rs, lam)
            assert got == ref_dominant_character(rs, lam)
            assert all(type(m) is int for _, m in got)
            if len(seen) == 3:
                break
        assert len(seen) >= 2


def test_frozen_dimensions_and_highest_root():
    e8 = build("E8")
    fundamentals = [
        tuple(1 if i == k else 0 for i in range(8)) for k in range(8)
    ]
    assert [weyl_dim(e8, w) for w in fundamentals] == [
        3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248,
    ]
    for name in ALL_TYPES:
        rs = build(name)
        assert casimir(rs, rs.highest_root) == 1
        assert weyl_dim(rs, rs.highest_root) == rs.dim_g


def test_weyl_dim_matches_reference_on_every_small_weight():
    # every dominant weight of Casimir at most 2, in every type
    from helpers import ref_weyl_dim

    for name in ALL_TYPES:
        rs = build(name)
        weights = dominant_weights_up_to(rs, 2)
        assert len(weights) > 1
        for lam in weights:
            assert weyl_dim(rs, lam) == ref_weyl_dim(rs, lam)


def test_dominant_weights_up_to_matches_a_brute_force_box():
    # the Casimir grows in every coordinate, so coordinate k of a weight
    # within the budget is at most the largest m with c(m omega_k) <= budget
    from helpers import ref_casimir

    budget = F(2)
    for name in ALL_TYPES:
        rs = build(name)
        sides = []
        for k in range(rs.rank):
            m = 0
            while ref_casimir(
                rs, tuple((m + 1) * (i == k) for i in range(rs.rank))
            ) <= budget:
                m += 1
            sides.append(range(m + 1))
        box = [
            lam
            for lam in itertools.product(*sides)
            if ref_casimir(rs, lam) <= budget
        ]
        got = dominant_weights_up_to(rs, budget)
        assert got == sorted(box, key=lambda w: (sum(w), w)), rs.name


def test_enumerated_casimirs_match_reference():
    # the walk's running numerators and pairing products are the Casimirs
    # and Weyl dimensions of the weights it yields, and dropping them gives
    # dominant_weights_up_to
    from helpers import ref_casimir, ref_weyl_dim

    for name in ALL_TYPES:
        rs = build(name)
        budget = F(10) if name == "E8" else F(4)
        triples = _dominant_casimirs(rs, budget)
        assert [w for w, _, _ in triples] == dominant_weights_up_to(rs, budget)
        for lam, num, dim in triples:
            assert type(num) is int and type(dim) is int
            assert F(num, rs.casimir_den) == ref_casimir(rs, lam), (name, lam)
            assert dim == ref_weyl_dim(rs, lam), (name, lam)


def test_packed_walk_on_a1_across_field_widths():
    # the largest pairing up to the Casimir of m omega is m + 1, so these
    # budgets sit just below and just above 2^8 and 2^16
    from helpers import ref_casimir, ref_weyl_dim

    a1 = build("A1")
    for m, code in ((254, "B"), (255, "H"), (65534, "H"), (65535, "I")):
        assert _pairing_field(a1, casimir_num(a1, (m,)))[0] == code
        triples = _dominant_casimirs(a1, casimir(a1, (m,)))
        assert [w for w, _, _ in triples] == [(k,) for k in range(m + 1)]
        assert [dim for _, _, dim in triples] == list(range(1, m + 2))
        for lam, num, dim in triples[-300:] + triples[::97]:
            assert F(num, a1.casimir_den) == ref_casimir(a1, lam)
            assert dim == ref_weyl_dim(a1, lam)


def test_packed_walk_past_one_byte_on_non_simply_laced_types():
    # coroot coefficients 2 and 3, on two-byte fields holding pairings past
    # 255: every weight with such a pairing, and a sample of the rest
    from helpers import ref_casimir, ref_weyl_dim

    for name, budget in (("B2", 3000), ("G2", 1500), ("C3", 2100)):
        rs = build(name)
        assert _pairing_field(rs, budget * rs.casimir_den)[0] == "H"
        triples = _dominant_casimirs(rs, budget)
        # the highest coroot, last by height, has the largest pairing
        top = rs.coroots[-1]
        wide = [
            t for t in triples
            if sum(c * (x + 1) for c, x in zip(top, t[0])) > 255
        ]
        assert len(wide) > 100, name
        for lam, num, dim in wide + triples[::1009]:
            assert F(num, rs.casimir_den) == ref_casimir(rs, lam), name
            assert dim == ref_weyl_dim(rs, lam), name


_WIDE_BUDGET_SCRIPT = """
import json, time
from liespec.errors import DomainError
from liespec.rootdata import build
from liespec.weights import _dominant_casimirs

start = time.perf_counter()
try:
    _dominant_casimirs(build("A1"), 10**50)
    raised = None
except DomainError as exc:
    raised = type(exc).__name__
print(json.dumps({"debug": __debug__, "raised": raised,
                  "seconds": time.perf_counter() - start}))
"""


def test_walk_refuses_a_budget_past_64_bit_fields():
    a1 = build("A1")
    # the widest A1 weight that 64-bit fields hold, and the next one
    assert _pairing_field(a1, casimir_num(a1, (2**64 - 2,))) == ("Q", 8)
    with pytest.raises(DomainError):
        _pairing_field(a1, casimir_num(a1, (2**64 - 1,)))
    # refused before any weight is walked, with the asserts stripped too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WIDE_BUDGET_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False and result["raised"] == "DomainError"
    assert result["seconds"] < 0.1


_WALK_FAULT_SCRIPT = """
import json
from liespec.errors import DomainError
from liespec.groups import GroupSpec, biinvariant_spectrum
from liespec.rootdata import build
from helpers import weyl_dim

e8 = build("E8")
# a Weyl denominator the pairing products are not all multiples of
object.__setattr__(e8, "weyl_den", 7 * e8.weyl_den)
raised = []
for job in (
    lambda: biinvariant_spectrum(GroupSpec((e8,)), 10),
    lambda: weyl_dim(e8, e8.highest_root),  # 248, not a multiple of 7
):
    try:
        job()
        raised.append(None)
    except DomainError as exc:
        raised.append([type(exc).__name__, str(exc)])
print(json.dumps({"debug": __debug__, "raised": raised}))
"""


def test_walk_rejects_a_non_integral_dimension_under_optimize():
    # the walk's and weyl_dim's exact division is an explicit raise, not an
    # assert
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WALK_FAULT_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False  # asserts really are stripped
    # raised by the walk and by weyl_dim themselves, not by a later check
    # on the table
    assert result["raised"] == [
        ["DomainError", "Weyl dimension did not come out a positive integer"]
    ] * 2


_WEYL_DIM_ERRORS_SCRIPT = """
import json
from liespec.errors import DomainError
from liespec.rootdata import build
from helpers import weyl_dim

raised = []
for name, lam in [("A2", (-1, 0)), ("E8", (0,) * 7 + (-1,)), ("A2", (1,)),
                  ("B3", (1, 0, 0, 0))]:
    try:
        weyl_dim(build(name), lam)
        raised.append(None)
    except DomainError as exc:
        raised.append(type(exc).__name__)
print(json.dumps({"debug": __debug__, "raised": raised}))
"""


def test_weyl_dim_rejects_bad_weights_under_optimize():
    # non-dominant and wrong-length weights raise DomainError with the
    # assertions stripped too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WEYL_DIM_ERRORS_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False  # asserts really are stripped
    assert result["raised"] == ["DomainError"] * 4
