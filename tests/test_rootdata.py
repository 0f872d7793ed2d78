import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    form_value,
    ref_contragredient,
    ref_coroots,
    ref_ip_norm,
    ref_minus_w0_perm,
    ref_positive_roots,
    weight_doors,
)
from liespec.errors import DomainError, InputError
from liespec.branching import _coords, _pack, _packing, _wall
from liespec.rational import exact_int, rat
from liespec.rootdata import (
    _chamber,
    _orbit,
    build,
    casimir,
    check_dominant,
    check_weight,
    _contragredient,
)


def _normalized(rs, u, v):
    """<u, v> with <theta, theta> = 2: ``form`` over ``form_den``."""
    return F(form_value(rs.form, u, v), rs.form_den)


def _killing_dual(rs, u, v):
    """The form the negative Killing form induces: ``form`` over
    ``casimir_den``."""
    return F(form_value(rs.form, u, v), rs.casimir_den)


# (name, dual Coxeter number, dim of the Lie algebra)
CLASSICAL = [
    ("A1", 2, 3),
    ("A2", 3, 8),
    ("A3", 4, 15),
    ("B2", 3, 10),
    ("B3", 5, 21),
    ("C3", 4, 21),
    ("D4", 6, 28),
    ("D5", 8, 45),
    ("E6", 12, 78),
    ("E7", 18, 133),
    ("E8", 30, 248),
    ("F4", 9, 52),
    ("G2", 4, 14),
]


def test_tables_against_classical_values():
    for name, hvee, dim_g in CLASSICAL:
        rs = build(name)
        assert rs.name == name
        assert rs.dual_coxeter == hvee
        assert rs.dim_g == dim_g
        assert len(rs.pos_roots_fund) == (dim_g - rs.rank) // 2
        # normalization: the highest root has squared length 2
        theta = rs.highest_root
        assert _normalized(rs, theta, theta) == 2
        assert ref_ip_norm(rs, theta, theta) == 2
        # the adjoint representation always has Casimir eigenvalue 1
        assert casimir(rs, rs.highest_root) == 1


def test_build_is_cached_and_case_insensitive():
    assert build("A2") is build("a2")
    assert build(" e8 ") is build("E8")


def test_build_rejects_bad_names():
    for bad in ("A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "H3", "", "A"):
        with pytest.raises(DomainError):
            build(bad)


def test_highest_roots():
    assert build("A2").highest_root == (1, 1)
    assert build("B2").highest_root == (0, 2)
    assert build("C3").highest_root == (2, 0, 0)
    assert build("G2").highest_root == (0, 1)
    assert build("E8").highest_root == (0, 0, 0, 0, 0, 0, 0, 1)


def test_minus_w0_permutations():
    assert build("A3").minus_w0 == (2, 1, 0)
    assert build("D4").minus_w0 == (0, 1, 2, 3)
    assert build("D5").minus_w0 == (0, 1, 2, 4, 3)
    assert build("E6").minus_w0 == (5, 1, 4, 3, 2, 0)
    assert build("E7").minus_w0 == (0, 1, 2, 3, 4, 5, 6)


def test_killing_dual_values():
    a1 = build("A1")
    assert _killing_dual(a1, (1,), (1,)) == F(1, 8)
    a2 = build("A2")
    assert _killing_dual(a2, (1, 0), (1, 0)) == F(1, 9)
    assert _killing_dual(a2, (1, 0), (0, 1)) == F(1, 18)
    # relation to the theta-normalized form: casimir_den = 2 h^vee form_den
    assert _killing_dual(a2, (1, 1), (2, 0)) == ref_ip_norm(
        a2, (1, 1), (2, 0)
    ) / (2 * a2.dual_coxeter)
    assert _normalized(a2, (1, 1), (2, 0)) == ref_ip_norm(a2, (1, 1), (2, 0))


def test_casimir_values():
    a1 = build("A1")
    for n in range(9):
        assert casimir(a1, (n,)) == F(n * (n + 2), 8)
    a2 = build("A2")
    assert casimir(a2, (1, 0)) == F(4, 9)
    assert casimir(a2, (0, 1)) == F(4, 9)
    assert casimir(a2, (1, 1)) == 1
    b2 = build("B2")
    assert casimir(b2, (1, 0)) == F(2, 3)  # vector of so(5)
    assert casimir(b2, (0, 1)) == F(5, 12)  # spinor of so(5)
    assert casimir(build("G2"), (1, 0)) == F(1, 2)


def test_casimir_requires_dominant():
    with pytest.raises(DomainError):
        casimir(build("A1"), (-1,))
    with pytest.raises(DomainError):
        casimir(build("A2"), (1, -1))


def test_check_weight_errors():
    a2 = build("A2")
    with pytest.raises(DomainError):
        check_weight(a2, (1,))
    with pytest.raises(DomainError):
        check_weight(a2, (1, F(1, 2)))
    assert check_weight(a2, [2, 0]) == (2, 0)
    # the dominance gate: a checked tuple back, or its own message
    assert check_dominant(a2, [0, 3], "no") == (0, 3)
    with pytest.raises(DomainError, match="^no$"):
        check_dominant(a2, (0, -1), "no")


# A str or bytes weight is one value, not a sequence of coordinates: read
# as one, "21" would be (2, 1) and b"11" the byte values (49, 49).  Prints
# the type of what each call raised.
_STRING_WEIGHTS = """
import json
from liespec.branching import branch
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.rootdata import build, casimir, check_weight

a2 = build("A2")
emb = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
calls = [
    lambda: check_weight(a2, "11"),
    lambda: check_weight(a2, b"11"),
    lambda: check_weight(a2, bytearray(b"11")),
    lambda: casimir(a2, "21"),
    lambda: branch(emb, "10"),
]
raised = []
for call in calls:
    try:
        call()
        raised.append(None)
    except Exception as exc:
        raised.append(type(exc).__name__)
print(json.dumps({"debug": __debug__, "raised": raised}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_string_weight_is_refused(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _STRING_WEIGHTS],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is not bool(flags)
    assert result["raised"] == ["InputError"] * 5
    # a sequence of coordinate strings, as the command line gives, is read
    assert check_weight(build("A2"), ["2", "1"]) == (2, 1)
    with pytest.raises(InputError):
        check_weight(build("A2"), "21")


def test_exact_values_pass_through_the_gate():
    # rat returns a Fraction and exact_int an int as it is given, each by
    # exact type: a bool is an int but no coordinate, and an int is made a
    # Fraction by rat
    x, n = F(3, 7), 10**30
    assert rat(x) is x and exact_int(n) is n
    assert type(rat(5)) is F and rat(5) == 5
    for bad in (True, False):
        with pytest.raises(InputError):
            exact_int(bad)
        with pytest.raises(InputError):
            rat(bad)
    w = (n, 0)
    assert all(a is b for a, b in zip(check_weight(build("A2"), w), w))


# Every public door that takes a dominant weight refuses a bad one through
# the one gate, with the type and message each refusal has always had: a
# wrong length, a bool coordinate, a string and a number in check_weight,
# and a weight that is not dominant with the door's own message.
_BAD_WEIGHTS = {
    "short": ((1,), "DomainError", "weight has 1 coordinates, expected 2"),
    "long": ((1, 0, 5), "DomainError", "weight has 3 coordinates, expected 2"),
    "bool": (
        (True, 0), "InputError", "not a rational: True; use 'p/q' strings"
    ),
    "string": (
        "10", "InputError", "a weight is a sequence of coordinates, not '10'"
    ),
    "negative": ((1, -1), "DomainError", None),
    "not a sequence": (
        5, "InputError", "a weight is a sequence of coordinates, not 5"
    ),
}
_NOT_DOMINANT = {
    "casimir": "casimir expects a dominant weight",
    "weyl_dim": "weyl_dim expects a dominant weight",
    "dominant_character": "character expects a dominant highest weight",
    "weight_diagram": "character expects a dominant highest weight",
    "branch": "branch expects a dominant weight",
    "center_admissible": "center_admissible expects dominant weights",
}


def _refusal(door, case):
    weight, kind, message = _BAD_WEIGHTS[case]
    return [door, case, kind, message or _NOT_DOMINANT[door]]


@pytest.mark.parametrize("case", sorted(_BAD_WEIGHTS))
@pytest.mark.parametrize("door", sorted(_NOT_DOMINANT))
def test_every_weight_door_refuses_through_the_gate(door, case):
    with pytest.raises(DomainError) as info:
        weight_doors()[door](_BAD_WEIGHTS[case][0])
    got = [door, case, type(info.value).__name__, str(info.value)]
    assert got == _refusal(door, case)


_GATE_UNDER_OPTIMIZE = """
import json, sys
from helpers import weight_doors
cases = json.loads(sys.argv[1])
out = []
for door, call in sorted(weight_doors().items()):
    for case, weight in sorted(cases.items()):
        try:
            call(tuple(weight) if isinstance(weight, list) else weight)
            out.append([door, case, None, None])
        except Exception as exc:
            out.append([door, case, type(exc).__name__, str(exc)])
print(json.dumps({"debug": __debug__, "refused": out}))
"""


def test_every_weight_door_refuses_under_optimize():
    # python -O strips assert statements: the gate raises, so it stays
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cases = {case: w for case, (w, _, _) in _BAD_WEIGHTS.items()}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GATE_UNDER_OPTIMIZE, json.dumps(cases)],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    assert result["debug"] is False
    assert result["refused"] == [
        _refusal(door, case)
        for door in sorted(_NOT_DOMINANT)
        for case in sorted(_BAD_WEIGHTS)
    ]


def test_weyl_orbits():
    a1 = build("A1")
    assert _orbit(a1.cartan, (2,)) == {(2,), (-2,)}
    a2 = build("A2")
    assert len(_orbit(a2.cartan, (1, 0))) == 3
    assert len(_orbit(a2.cartan, (1, 1))) == 6  # regular: full Weyl group
    assert _orbit(a2.cartan, (0, 0)) == {(0, 0)}
    b2 = build("B2")
    assert len(_orbit(b2.cartan, (1, 1))) == 8


def test_reflection_and_dominant_rep():
    a2 = build("A2")
    for nu in _orbit(a2.cartan, (2, 1)):
        assert _chamber(a2.cartan, nu)[0] == (2, 1)


def _orbit_by_search(cartan, v) -> set:
    """The Weyl orbit of v, closed under s_j(u) = u - u_j alpha_j by a
    search written here."""
    seen, frontier = {v}, [v]
    while frontier:
        nxt = []
        for u in frontier:
            for j, row in enumerate(cartan):
                w = tuple(x - u[j] * a for x, a in zip(u, row))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_chamber_walk_matches_an_independent_oracle():
    # every weight v of the box [-2, 2]^rank: the walk ends at a dominant
    # weight of v's orbit, with det w = (-1)^length(w) for a regular v, the
    # length being the number of positive coroots that pair negatively
    # with v; the kernel's wall rule on G's own packing, read on the sum
    # packed(v) + H, is (0, 0) exactly when v + rho is on a wall
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4",
                 "G2", "F4"):
        rs = build(name)
        g = _packing((rs,))
        orbits = {}

        def orbit(dom):
            if dom not in orbits:
                orbits[dom] = _orbit_by_search(rs.cartan, dom)
            return orbits[dom]

        for v in itertools.product(range(-2, 3), repeat=rs.rank):
            dom, sign = _chamber(rs.cartan, v)
            assert min(dom) >= 0 and v in orbit(dom), (name, v)
            pairs = [sum(map(mul, co, v)) for co in rs.coroots]
            if 0 not in pairs:
                assert sign == (-1) ** sum(p < 0 for p in pairs), (name, v)
            if min(v) >= 0:
                assert (dom, sign) == (v, 1)
            # (v + rho, beta^vee) = (v, beta^vee) + (rho, beta^vee)
            shifted = [p + sum(co) for p, co in zip(pairs, rs.coroots)]
            key, sign = _wall(g, _pack(g, v, g.high))
            if 0 in shifted:
                assert (key, sign) == (0, 0), (name, v)
                continue
            kappa = tuple(_coords(g, key))
            top = tuple(k + 1 for k in kappa)
            assert min(kappa) >= 0, (name, v)
            assert tuple(x + 1 for x in v) in orbit(top), (name, v)
            assert sign == (-1) ** sum(p < 0 for p in shifted), (name, v)


def test_contragredient_weight():
    a2 = build("A2")
    assert ref_contragredient(a2, (1, 0)) == (0, 1)
    assert ref_contragredient(a2, (2, 1)) == (1, 2)
    assert ref_contragredient(build("A1"), (3,)) == (3,)
    assert ref_contragredient(build("B2"), (2, 1)) == (2, 1)
    # the -w0 table against the dominant weight in the orbit of -lam
    for name in ("A2", "A4", "B3", "D5", "E6", "G2"):
        rs = build(name)
        lam = tuple(k % 3 for k in range(rs.rank))
        assert _contragredient(rs, lam) == ref_contragredient(rs, lam), name


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "B2", "A3", "G2"]),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_killing_form_bilinear_symmetric(name, u3, v3):
    rs = build(name)
    u = u3[: rs.rank]
    v = v3[: rs.rank]
    assert _killing_dual(rs, u, v) == _killing_dual(rs, v, u)
    two_u = tuple(2 * x for x in u)
    assert _killing_dual(rs, two_u, v) == 2 * _killing_dual(rs, u, v)
    assert _killing_dual(rs, u, v) == ref_ip_norm(rs, u, v) / (
        2 * rs.dual_coxeter
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2"]),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_casimir_invariant_on_orbits(name, lam):
    # <nu, nu + 2 rho_dual-ish> is not orbit invariant, but the norm is:
    # every orbit element has the same squared length as the dominant rep
    rs = build(name)
    for nu in _orbit(rs.cartan, lam):
        assert _normalized(rs, nu, nu) == _normalized(rs, lam, lam)


REFERENCE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_root_data_matches_root_string_reference():
    for name in REFERENCE_TYPES:
        rs = build(name)
        ref = ref_positive_roots(rs.cartan)
        assert rs.pos_roots_fund == tuple(f for f, _ in ref), name
        assert rs.minus_w0 == ref_minus_w0_perm(rs.family, rs.rank), name
        # the coroots are listed in their own height order, not the roots'
        assert sorted(rs.coroots) == sorted(ref_coroots(rs)), name
        # -w0 permutes the positive roots
        pos = set(rs.pos_roots_fund)
        for v in rs.pos_roots_fund:
            assert tuple(v[i] for i in rs.minus_w0) in pos, name
