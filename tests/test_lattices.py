import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    box_oracle_spectrum,
    form_value,
    random_integer_basis,
    random_rational_basis,
    ref_congruent,
    ref_det,
    ref_inverse,
    reduce_with_transform,
    ref_lll_gram,
    ref_lll_int,
    ref_torus_search,
    short_vectors,
    short_vectors_int,
    volume,
)
from liespec import build, isolation
from liespec.errors import (
    CertificationError,
    DomainError,
    InputError,
    LiespecError,
    UnsupportedDimensionError,
)
from liespec.isolation import finiteness_window, torus_search
from liespec.lattices import (
    Lattice,
    congruent,
    dual,
    systole,
    torus_lambda1,
    torus_spectrum,
)
from liespec import linalg
from liespec.lattices import (
    congruence,
    enumeration,
    lattice,
    reduction,
    spectra,
)
from liespec.lattices.enumeration import _norm_counts, _squares
from liespec.lattices.reduction import _lll_int
from liespec.linalg import matmul, transpose

Z2 = Lattice.from_basis(((F(1), F(0)), (F(0), F(1))))
HEX = Lattice.from_gram(((F(2), F(1)), (F(1), F(2))))
DIAG12 = Lattice.from_basis(((F(1), F(0)), (F(0), F(2))))


def test_lattice_validation():
    with pytest.raises(DomainError):
        Lattice.from_gram(((F(1), F(2)), (F(2), F(1))))  # not PD
    with pytest.raises(DomainError):
        Lattice.from_gram(((F(0), F(0)), (F(0), F(1))))
    with pytest.raises(DomainError):
        Lattice.from_basis(((F(1), F(1)), (F(1), F(1))))  # singular
    with pytest.raises(DomainError):
        Lattice(gram=((F(1), F(0)), (F(0), F(1), F(0))))
    with pytest.raises(DomainError, match="ragged matrix"):
        Lattice.from_gram([[1, 0], [0]])
    # an empty matrix is no lattice
    for empty in ({"gram": ()}, {"basis": ()}):
        with pytest.raises(DomainError, match="dimension must be >= 1"):
            Lattice(**empty)
    # LLL, which makes every form the kernel reads, refuses a form that is
    # not positive definite
    for gram in ([[1, 0], [0, 0]], [[0, 1], [1, 0]]):
        with pytest.raises(LiespecError):
            _lll_int(gram, linalg.eliminate(gram))
    # a basis must be square: three generators in R^4 with B^T B = I
    with pytest.raises(DomainError):
        Lattice(
            gram=tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3)),
            basis=tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(4)),
        )


def test_lattice_keeps_tuples_of_given_lists():
    # a gram matrix or basis given as lists is kept as a tuple of tuples:
    # the caller's list can change later and the lattice does not, it
    # hashes, and B^T B, which matmul makes as tuples, can equal it
    g = [[F(1), F(0)], [F(0), F(1)]]
    lat = Lattice(gram=g)
    g[0][0] = F(-5)
    assert lat.gram == ((1, 0), (0, 1)) and lat.det_gram == 1
    assert hash(lat) == hash(Lattice(gram=((F(1), F(0)), (F(0), F(1)))))
    b = [[F(1), F(0)], [F(0), F(1)]]
    both = Lattice(gram=[row[:] for row in b], basis=b)
    b[1][1] = F(3)
    assert both.basis == ((1, 0), (0, 1))
    assert both == Lattice.from_basis(((1, 0), (0, 1)))


def test_volume_needs_basis():
    # |det B| needs a basis; a Gram-only lattice has its square, det_gram
    assert volume(Z2) == 1 and volume(DIAG12) ** 2 == DIAG12.det_gram == 4
    assert HEX.basis is None and HEX.det_gram == 3


def test_dual_involution_and_gram():
    d = dual(HEX)
    assert d.gram == ref_inverse(HEX.gram)
    assert dual(d).gram == HEX.gram
    dz = dual(Z2)
    assert dz.gram == Z2.gram
    assert dz.basis is not None
    # random lattices with a basis and the same Gram matrices without one:
    # the dual's Gram matrix is the inverse either way, the dual basis is
    # (B^T)^{-1}, and dual(dual(L)) is L itself, basis included
    rng = random.Random(17)
    for i in range(24):
        lat = Lattice.from_basis(random_rational_basis(rng, 1 + i % 4))
        bare = Lattice.from_gram(lat.gram)
        for x in (lat, bare):
            d = dual(x)
            assert d.gram == ref_inverse(x.gram)
            assert d.det_gram * x.det_gram == 1
            assert dual(d) == x
        assert dual(bare).basis is None
        m = lat.dim
        eye = tuple(tuple(int(r == c) for c in range(m)) for r in range(m))
        assert matmul(transpose(dual(lat).basis), lat.basis) == eye


def test_lattice_needs_exact_entries():
    # every gram or basis entry is an int or a Fraction, by exact type: a
    # float, a bool or a string is refused, not coerced
    for bad in (1.5, True, "1", None):
        with pytest.raises(InputError):
            Lattice(gram=((bad,),))
        with pytest.raises(InputError):
            Lattice(basis=((bad,),))
        with pytest.raises(InputError):
            Lattice(gram=((F(1),),), basis=((bad,),))
    with pytest.raises(InputError):
        Lattice()
    # the dimension is the matrix's size, an int that JSON writes back, and
    # no argument
    assert Lattice(gram=((F(1),),)).to_json_dict()["dim"] == 1
    with pytest.raises(TypeError):
        Lattice(dim=1, gram=((F(1),),))
    # from_gram and from_basis coerce strings once, before the constructor
    assert Lattice(gram=((1,),)) == Lattice.from_gram([["1"]])
    assert Lattice(basis=((F(2),),)).gram == ((4,),)
    # given both, B^T B must be G
    with pytest.raises(DomainError):
        Lattice(gram=((F(2),),), basis=((F(1),),))
    # a ragged basis is not square, whatever its transpose's shape
    with pytest.raises(DomainError):
        Lattice(basis=((F(1), F(0)), (F(0), F(1), F(5))))


def test_from_basis_multiplies_once(monkeypatch):
    # B^T B is multiplied out once, by the constructor, when it is given a
    # basis alone; given both it is the one check; a dual with a basis
    # multiplies B G^{-1} and then that basis with itself
    calls = []
    real = linalg.matmul

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(linalg, "matmul", counting)
    rng = random.Random(20260816)
    for _ in range(20):
        basis = random_rational_basis(rng, rng.randint(1, 4))
        calls.clear()
        lat = Lattice.from_basis(basis)
        assert len(calls) == 1
        calls.clear()
        assert Lattice(gram=lat.gram, basis=lat.basis) == lat
        assert len(calls) == 1
        calls.clear()
        Lattice.from_gram(lat.gram)
        dual(lat)
        assert len(calls) == 2


def test_json_round_trip():
    for lat in (Z2, HEX):
        back = Lattice.from_json_dict(lat.to_json_dict())
        assert back.gram == lat.gram
    with pytest.raises(DomainError):
        Lattice.from_json_dict({"dim": 3, "gram": [["1", "0"], ["0", "1"]]})


def test_short_vectors_z2():
    vecs = short_vectors(Z2, F(2))
    norms = sorted(n for _, n in vecs)
    assert norms.count(1) == 4 and norms.count(2) == 4
    assert len(vecs) == 8
    for coords, n in vecs:
        assert form_value(Z2.gram, coords, coords) == n
    # both signs present, sorted by (norm, coords)
    assert vecs == sorted(vecs, key=lambda p: (p[1], p[0]))
    coord_set = {c for c, _ in vecs}
    assert {tuple(-x for x in c) for c in coord_set} == coord_set
    with pytest.raises(DomainError):
        short_vectors(Z2, F(-1))


def test_systole_values():
    assert systole(Z2) == 1
    assert systole(HEX) == 2
    assert systole(DIAG12) == 1
    assert systole(dual(HEX)) == F(2, 3)


def test_torus_spectrum_z2():
    t = torus_spectrum(Z2, F(8))
    assert dict(t.entries) == {
        F(0): 1, F(1): 4, F(2): 4, F(4): 4, F(5): 8, F(8): 4,
    }
    assert t.unit == "four-pi-squared"
    assert t.complete


def test_torus_spectrum_diag12():
    # dual = diag(1, 1/4): norm-1 vectors are (1,0),(-1,0),(0,2),(0,-2)
    t = torus_spectrum(DIAG12, F(1))
    assert dict(t.entries) == {F(0): 1, F(1, 4): 2, F(1): 4}


def test_torus_spectrum_cutoff_zero():
    t = torus_spectrum(Z2, F(0))
    assert t.entries == ((F(0), 1),)


def test_torus_lambda1_is_dual_systole():
    for lat in (Z2, HEX, DIAG12):
        assert torus_lambda1(lat) == systole(dual(lat))


def test_scaling_quarters_eigenvalues():
    # doubling the lattice scales the torus eigenvalues by 1/4
    double = Lattice.from_basis(((F(2), F(0)), (F(0), F(2))))
    t1 = torus_spectrum(Z2, F(4))
    t2 = torus_spectrum(double, F(1))
    assert [(e * 4, m) for e, m in t2.entries] == list(t1.entries)


def test_oracle_agreement_small():
    rng = random.Random(123)
    for _ in range(25):
        m = rng.randint(1, 3)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        table = torus_spectrum(lat, F(30))
        assert dict(table.entries) == box_oracle_spectrum(lat, F(30))


def _cleared(gram, bound):
    """(q*G, floor(q*bound)): x^T G x <= bound iff x^T (q*G) x <= that."""
    a, q = linalg.clear_denominators(gram)
    return a, bound.numerator * q // bound.denominator


def _completion(a):
    """The kernel's square completion of a, from one elimination."""
    pivots, rows, _ = linalg.eliminate(a)
    assert min(pivots) > 0
    return _squares(pivots, rows)


def test_kernel_differential():
    # the integer kernel returns the Fraction reference's exact list, in
    # order, and its counts
    rng = random.Random(99)
    problems = []
    for _ in range(30):
        m = rng.randint(1, 4)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        problems.append((lat.gram, F(rng.randint(1, 40), rng.randint(1, 3))))
    # dimensions 6 and 7, where the level-2 step carries tails of length
    # 3 and 4: E6 and E7, and random integer bases at their largest norm
    for name in ("E6", "E7"):
        problems += [(build(name).cartan, F(4)), (build(name).cartan, F(6))]
    for m in (6, 7):
        gram = Lattice.from_basis(random_integer_basis(rng, m)).gram
        problems.append((gram, max(gram[i][i] for i in range(m))))
    problems.append((build("E8").cartan, F(6)))
    for gram, bound in problems:
        a, b = _cleared(gram, bound)
        reference, found = short_vectors_int(a, b), []
        counts = _norm_counts(_completion(a), b, found)
        assert found == reference
        assert counts == Counter(v for _, v in reference)


def _kernel_problems():
    # integer and rational Gram matrices of dimension 1-5; the Gram matrix
    # of a random integer basis is usually far from reduced
    rng = random.Random(4242)
    problems = []
    for i in range(60):
        m = 1 + i % 5
        make = random_integer_basis if i % 2 else random_rational_basis
        gram = Lattice.from_basis(make(rng, m)).gram
        problems.append((gram, F(rng.randint(0, 30), rng.randint(1, 3))))
    return problems


def test_inexact_divisions_raise():
    # the kernel's and LLL's exact divisions check by a raise, so this test
    # also fails under python -O, which strips every assert, if one is gone
    for exact in (enumeration._exact, reduction._exact):
        assert exact(6, -2) == -3
        with pytest.raises(CertificationError):
            exact(7, 2)


def test_norm_counts_match_reference():
    # the values-only kernel counts the reference's values exactly, and
    # asked for coordinates it lists the reference's vectors in order
    for gram, bound in _kernel_problems():
        a, b = _cleared(gram, bound)
        reference = short_vectors_int(a, b)
        squares, found = _completion(a), []
        counts = Counter(v for _, v in reference)
        assert _norm_counts(squares, b) == counts
        assert _norm_counts(squares, b, found) == counts
        assert found == reference
        least = min(a[i][i] for i in range(len(a)))
        q = linalg.clear_denominators(gram)[1]
        assert systole(Lattice.from_gram(gram)) == F(
            min(v for _, v in short_vectors_int(a, least)), q
        )


def test_dual_form_is_cached_and_exact():
    rng = random.Random(8)
    lats = [HEX, Lattice.from_gram(build("E8").cartan)]
    lats += [
        Lattice.from_basis(random_rational_basis(rng, rng.randint(1, 4)))
        for _ in range(12)
    ]
    for lat in lats:
        before = (repr(lat), hash(lat), lat.to_json_dict())
        fresh = Lattice(gram=lat.gram, basis=lat.basis)
        a, scale, squares = lat._dual_form
        assert lat._dual_form is lat._dual_form  # made once
        assert lat._form is lat._form
        # the least integer form of a Gram matrix of the dual lattice
        assert all(type(x) is int for row in a for x in row)
        # the kernel's completion is that of one elimination of the form
        assert squares == _completion([list(row) for row in a])
        # a lattice's own form is its dual's dual form, and the other way
        assert dual(lat)._form == lat._dual_form
        assert dual(lat)._dual_form == lat._form
        own, q, own_squares = lat._form
        assert q == linalg.clear_denominators(lat.gram)[1]
        assert own_squares == _completion([list(row) for row in own])
        inverse = ref_inverse(lat.gram)
        assert scale == lcm(*(x.denominator for row in inverse for x in row))
        reduced = [[F(x, scale) for x in row] for row in a]
        assert ref_det(reduced) == ref_det(inverse)
        assert congruent(Lattice.from_gram(reduced), dual(lat))
        # a cached form changes neither equality, hashing nor the JSON
        assert (repr(lat), hash(lat), lat.to_json_dict()) == before
        assert lat == fresh and hash(lat) == hash(fresh)
        # spectrum and lambda1 agree in either order, cached or fresh
        later = Lattice(gram=lat.gram, basis=lat.basis)
        lam = torus_lambda1(later)
        cutoff = 2 * lam
        table = torus_spectrum(later, cutoff)
        assert table == torus_spectrum(lat, cutoff)
        assert table == torus_spectrum(fresh, cutoff)
        assert lam == torus_lambda1(fresh) == torus_lambda1(lat)
        assert lam == table.lambda1() == systole(dual(lat))
        # a spectrum below lambda1 holds no nonzero norm and stores none
        below = Lattice(gram=lat.gram, basis=lat.basis)
        assert len(torus_spectrum(below, lam / 2).entries) == 1
        assert "_dual_minimum" not in vars(below)
        assert torus_lambda1(below) == systole(dual(lat))


def test_large_entries_enumerate_exactly():
    # entries far beyond 64-bit products still enumerate right
    big = 1 << 41
    lat = Lattice.from_gram(((F(big), F(0)), (F(0), F(big))))
    vecs = short_vectors(lat, F(4 * big))
    assert sorted(n for _, n in vecs) == [big] * 4 + [2 * big] * 4 + [
        4 * big
    ] * 4


def test_lll_properties():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(2, 4)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        a, _ = linalg.clear_denominators(lat.gram)
        a2, u, d, lam = ref_lll_int(
            [list(row) for row in a], linalg.eliminate(a)
        )
        # the library's LLL leaves its input as it was and returns the
        # reference's form and table
        assert _lll_int(a, linalg.eliminate(a)) == (a2, d, lam)
        # transform is unimodular and transports the form
        assert abs(ref_det(u)) == 1
        assert matmul(transpose(u), matmul(a, u)) == tuple(map(tuple, a2))
        # reduction never increases the shortest diagonal entry
        assert min(a2[i][i] for i in range(m)) <= min(
            a[i][i] for i in range(m)
        )


def test_lll_matches_elementary_matrix_reference():
    # in-place LLL on q*G gives q times the reference's reduced Gram and
    # its U, in integers, on random rational and integer lattices of
    # dimension 1-6, the criterion-01 lattices and their duals, and the E8
    # Cartan matrix
    rng = random.Random(2026)
    grams = []
    for i in range(300):
        m = rng.randint(1, 6)
        make = random_rational_basis if i % 2 else random_integer_basis
        grams.append(Lattice.from_basis(make(rng, m)).gram)
    rng = random.Random(20260816)  # the criterion-01 sequence
    for _ in range(200):
        lat = Lattice.from_basis(random_rational_basis(rng, rng.randint(1, 4)))
        grams += [lat.gram, dual(lat).gram]
    grams.append(build("E8").cartan)
    for gram in grams:
        a, q = linalg.clear_denominators(gram)
        reduced = _lll_int(a, linalg.eliminate(a))
        a, u, d, lam = ref_lll_int(a, linalg.eliminate(a))
        assert reduced == (a, d, lam)
        g_ref, u_ref = ref_lll_gram(gram)
        assert all(type(x) is int for row in a + u for x in row)
        assert a == [[q * x for x in row] for row in g_ref]
        assert u == [list(row) for row in u_ref]


def _sheared(rng, gram, size):
    """S^T gram S for a unimodular S made of shears with multipliers up to
    ``size``, which LLL takes many swaps to undo."""
    m = len(gram)
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        if i != j:
            c = rng.randint(-size, size)
            for row in s:
                row[j] += c * row[i]
    return [list(row) for row in matmul(transpose(s), matmul(gram, s))]


def _lll_table_problems():
    # random positive-definite integer Gram matrices A^T A + I of dimension
    # 1-8, the E8 Cartan matrix, and sheared forms of both
    rng = random.Random(314)
    grams = []
    for i in range(96):
        m = 1 + i % 8
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        grams.append([
            [sum(r[i] * r[j] for r in a) + (i == j) for j in range(m)]
            for i in range(m)
        ])
    e8 = [[int(x) for x in row] for row in build("E8").cartan]
    grams.append(e8)
    for size in (5, 40, 1000):
        grams.append(_sheared(rng, e8, size))
        grams += [_sheared(rng, g, size) for g in grams[8:24]]
    return grams


def test_lll_table_is_the_elimination_of_its_result():
    # the (d, lam) that LLL updates at each swap and returns is the Bareiss
    # table of the reduced form, entry for entry
    swapped = 0
    for gram in _lll_table_problems():
        a, d, lam = _lll_int(gram, linalg.eliminate(gram))
        reference = ref_lll_int(
            [list(row) for row in gram], linalg.eliminate(gram)
        )
        u = reference[1]
        assert (a, d, lam) == reference[:1] + reference[2:]
        pivots, rows, _ = linalg.eliminate(a)
        assert (d, lam) == (pivots, rows)
        assert matmul(transpose(u), matmul(gram, u)) == tuple(map(tuple, a))
        swapped += a != gram
    assert swapped > 50


def test_lll_eliminates_once(monkeypatch):
    # one elimination per LLL call, the table it is handed, however many
    # swaps, and at most two per lattice (the adjugate and the dual form's
    # table) for its spectrum and lambda1; one kernel call per lattice when
    # the spectrum comes first, since it holds lambda1, and two when
    # lambda1 comes first
    calls, kernel = [], []
    real, real_kernel = linalg.eliminate, enumeration._norm_counts

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    def counting_kernel(squares, bound, *rest):
        kernel.append(bound)
        return real_kernel(squares, bound, *rest)

    monkeypatch.setattr(linalg, "eliminate", counting)
    monkeypatch.setattr(enumeration, "_norm_counts", counting_kernel)
    monkeypatch.setattr(spectra, "_norm_counts", counting_kernel)
    for gram in _lll_table_problems():
        calls.clear()
        _lll_int([list(row) for row in gram], linalg.eliminate(gram))
        assert len(calls) == 1
    # the torus-batch benchmark set: the 200 criterion-01 lattices at
    # cutoff 12 with their lambda1, and E8 at cutoff 6
    rng = random.Random(20260816)
    lats = [
        Lattice.from_basis(random_rational_basis(rng, rng.randint(1, 4)))
        for _ in range(200)
    ]
    e8 = Lattice.from_gram(build("E8").cartan)
    calls.clear()
    made = [(torus_spectrum(lat, 12), torus_lambda1(lat)) for lat in lats]
    torus_spectrum(e8, 6)
    assert len(calls) == 2 * 201
    assert len(kernel) == 201
    # lambda1 first: its own kernel call, then the spectrum's
    kernel.clear()
    for lat, (table, lam) in zip(lats, made):
        fresh = Lattice(gram=lat.gram, basis=lat.basis)
        assert torus_lambda1(fresh) == lam == table.lambda1()
        assert torus_spectrum(fresh, 12) == table
    assert len(kernel) == 2 * 200


def test_one_elimination_per_lattice(monkeypatch):
    # the constructor's elimination of q*G serves the positive-definiteness
    # check, det_gram and the start of LLL for the systole
    calls = []
    real = linalg.eliminate

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(linalg, "eliminate", counting)
    rng = random.Random(11)
    for _ in range(20):
        gram = Lattice.from_basis(random_rational_basis(rng, 3)).gram
        calls.clear()
        lat = Lattice.from_gram(gram)
        assert lat.det_gram == ref_det(gram) and systole(lat) > 0
        assert calls == [3]
    calls.clear()
    e8 = Lattice.from_gram(build("E8").cartan)
    assert (e8.det_gram, systole(e8), len(calls)) == (1, 2, 1)


def test_reduce_with_transform_reaches_systole():
    rng = random.Random(17)
    for _ in range(15):
        m = rng.randint(2, 4)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        reduced, u = reduce_with_transform(lat)
        a, _ = linalg.clear_denominators(lat.gram)
        table = linalg.eliminate(a)
        want = ref_lll_int([list(row) for row in a], table)
        assert _lll_int(a, table) == want[:1] + want[2:]
        assert abs(ref_det(u)) == 1
        assert matmul(transpose(u), matmul(lat.gram, u)) == reduced.gram
        # for dim <= 4 the reduced first basis vector attains the minimum
        assert reduced.gram[0][0] == systole(lat)


def test_congruence_basics():
    # same lattice under a unimodular change of basis
    u = ((F(1), F(3)), (F(0), F(1)))
    g2 = matmul(transpose(u), matmul(HEX.gram, u))
    assert congruent(HEX, Lattice.from_gram(g2))
    assert not congruent(Z2, HEX)
    assert congruent(Z2, Lattice.from_basis(((F(0), F(-1)), (F(1), F(0)))))
    with pytest.raises(DomainError):
        congruent(Z2, Lattice.from_gram(((F(1),),)))


def test_congruence_dimension_cap():
    eye9 = tuple(
        tuple(F(1 if i == j else 0) for j in range(9)) for i in range(9)
    )
    big = Lattice.from_gram(eye9)
    with pytest.raises(UnsupportedDimensionError):
        congruent(big, big)


def test_congruent_matches_reference_on_search_candidates(monkeypatch):
    # every pair of the 272 tori that the {1, 2, 3} search in dimension 3
    # returns when it drops no congruent candidate, each with itself too;
    # 4,817 of the pairs are congruent
    monkeypatch.setattr(isolation, "congruent", lambda a, b: False)
    lats = torus_search(["1", "2", "3"], 3, "1/2", "1/2")
    monkeypatch.undo()
    assert len(lats) == 272
    congruent_pairs = 0
    for i, a in enumerate(lats):
        for b in lats[i:]:
            want = ref_congruent(a, b)
            assert congruent(a, b) == want == congruent(b, a)
            congruent_pairs += want
    assert congruent_pairs == 4817


def test_congruence_is_decided_alike_on_the_duals():
    # lattices are congruent iff their duals are, the lemma behind the
    # torus search's dedupe: on unimodular images (congruent) and on
    # random pairs of equal dimension (not), with and without a basis
    rng = random.Random(31)
    seen = Counter()
    for i in range(48):
        m = 1 + i % 4
        a = Lattice.from_basis(random_rational_basis(rng, m))
        if i % 3 == 0:
            a = Lattice.from_gram(a.gram)
        if i % 2:
            b = Lattice.from_gram(_sheared(rng, a.gram, 3))
        else:
            b = Lattice.from_basis(random_rational_basis(rng, m))
        want = congruent(a, b)
        assert congruent(dual(a), dual(b)) == want == congruent(b, a)
        assert want or not i % 2
        seen[want] += 1
    assert seen[True] >= 24 and seen[False] >= 12


def test_unimodular_images_are_congruent():
    # one path in every dimension: backtracking on the cached LLL forms
    rng = random.Random(23)
    for i in range(36):
        m = 1 + i % 6
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        image = Lattice.from_gram(_sheared(rng, lat.gram, 5))
        assert congruent(lat, image) and congruent(image, lat)
        if m <= 3:
            assert ref_congruent(lat, image)


def test_congruence_invariants_decide_before_the_kernel(monkeypatch):
    def diag(*xs):
        return Lattice.from_gram(
            [[F(x) if i == j else F(0) for j, x in enumerate(xs)]
             for i in range(len(xs))]
        )

    # equal det 4 with least denominators 1 and 2; unequal det; G and 2G
    double = Lattice.from_gram([[2 * x for x in row] for row in HEX.gram])
    unequal = [
        (diag(1, 4), diag(F(1, 2), 8)), (HEX, diag(2, 2)), (HEX, double)
    ]
    for a, b in unequal:
        assert not ref_congruent(a, b)
    monkeypatch.setattr(congruence, "_norm_counts", None)
    for a, b in unequal:
        assert not congruent(a, b) and not congruent(b, a)
    monkeypatch.undo()
    # equal q = 1 and det 6, but norm 1 occurs in only one of them
    a, b = diag(1, 6), diag(2, 3)
    assert (a._form[1], a._form[2][0][-1]) == (b._form[1], b._form[2][0][-1])
    assert not congruent(a, b) and not ref_congruent(a, b)


def test_each_form_is_made_once(monkeypatch):
    calls = []
    real = lattice._lll_int

    def counting(a, table):
        calls.append(len(a))
        return real(a, table)

    monkeypatch.setattr(lattice, "_lll_int", counting)
    u = ((F(1), F(3)), (F(0), F(1)))
    a = Lattice.from_gram(HEX.gram)
    b = Lattice.from_gram(matmul(transpose(u), matmul(HEX.gram, u)))
    assert congruent(a, b) and calls == [2, 2]
    assert congruent(a, b) and congruent(b, a) and calls == [2, 2]
    # each candidate that passes the det filter (272) is reduced once, for
    # its systole, and the dedupe compares those same forms; the kept ones
    # are inverted and not reduced
    calls.clear()
    assert len(torus_search(["1", "2", "3"], 3, "1/2", "1/2")) == 14
    assert len(calls) == 272


def test_torus_search_eliminates_once_per_candidate(monkeypatch):
    # one elimination per candidate (3^6 = 729) in the constructor, and two
    # per kept candidate (14): the adjugate that inverts it and the torus's
    # constructor; the dedupe compares candidates on the forms the systole
    # filter made, and congruence on forms already made eliminates nothing
    calls = []
    real = linalg.eliminate

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(linalg, "eliminate", counting)
    assert len(torus_search(["1", "2", "3"], 3, "1/2", "1/2")) == 14
    assert len(calls) == 729 + 14 * 2
    rng = random.Random(29)
    lat = Lattice.from_basis(random_rational_basis(rng, 3))
    image = Lattice.from_gram(_sheared(rng, lat.gram, 5))
    assert lat._form and image._form  # both forms made before the count
    calls.clear()
    assert congruent(lat, image) and congruent(image, lat)
    assert calls == []


def test_torus_search_matches_reference():
    # the reference builds each candidate through from_gram and compares
    # with ref_congruent; the kept tori and their order agree (about 4 s)
    cases = [
        (("1", "2"), 2, "1/2", "1/2"),
        (("1", "2"), 3, "1/2", "1/2"),
        (("1", "2"), 4, "1/2", "1/2"),
        (("1", "2", "3"), 3, "1/2", "1/2"),
        (("1/2", "1", "3/2"), 3, "1/4", "1/4"),
    ]
    for case in cases:
        assert torus_search(*case) == ref_torus_search(*case), case


def test_congruent_lattices_isospectral():
    u = ((F(1), F(0)), (F(2), F(1)))
    g2 = matmul(transpose(u), matmul(HEX.gram, u))
    other = Lattice.from_gram(g2)
    a = torus_spectrum(HEX, F(12))
    b = torus_spectrum(other, F(12))
    assert a.entries == b.entries


def test_hermite_bound():
    # Hermite's inequality lambda1^2 * det <= gamma_2^2 = 4/3 in the plane,
    # lambda1 the dual systole; the hexagonal lattice is the planar optimum,
    # so its bound is tight, and the square lattice's is not
    assert systole(dual(HEX)) ** 2 * HEX.det_gram == F(4, 3)
    assert systole(dual(Z2)) ** 2 * Z2.det_gram == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(0, 4), st.integers(1, 4))
def test_gram_scaling_property(p, q, s):
    # scaling the Gram by s scales every enumerated norm by s
    g = ((F(4), F(p, 3)), (F(p, 3), F(4 + q)))  # det >= 16 - 25/9 > 0
    lat = Lattice.from_gram(g)
    scaled = Lattice.from_gram(
        tuple(tuple(x * s for x in row) for row in g)
    )
    a = short_vectors(lat, F(9))
    b = short_vectors(scaled, F(9 * s))
    assert [(c, n * s) for c, n in a] == b


def test_float_cutoffs_rejected():
    # every torus entry point is exact: a float cutoff is a domain error
    with pytest.raises(DomainError):
        torus_spectrum(Z2, 0.1)
    with pytest.raises(DomainError):
        short_vectors(Z2, 0.5)
    assert torus_spectrum(Z2, "1/10").cutoff == F(1, 10)
    # a dimension is an exact integer: no float, no truncation of 5/2
    for n in (2.7, F(5, 2), "5/2"):
        with pytest.raises(DomainError):
            torus_search((1, 2), n, F(1, 2), F(1, 2))
        with pytest.raises(DomainError):
            finiteness_window(2, 3, n, 1)
    assert finiteness_window(2, 3, "2", 1) == F(1, 36)


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append((0,) * at + tuple(row) + (0,) * (n - at - len(row)))
        at += len(b)
    return rows


# closed-form theta series: each expected side is the test's own divisor
# sum over a Gram matrix written here, so no liespec code makes it
E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def _identity_gram(m):
    return tuple(tuple(F(int(i == j)) for j in range(m)) for i in range(m))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_z4_matches_jacobi_four_squares():
    # r_4(n) = 8 * sum of the divisors d of n with 4 not dividing d
    expect = {F(0): 1}
    for n in range(1, 41):
        expect[F(n)] = 8 * sum(d for d in _divisors(n) if d % 4)
    table = torus_spectrum(Lattice.from_gram(_identity_gram(4)), 40)
    assert dict(table.entries) == expect


def test_z8_matches_eight_squares():
    # r_8(n) = 16 * sum over the divisors d of n of (-1)^(n + d) d^3
    expect = {F(0): 1}
    for n in range(1, 11):
        expect[F(n)] = 16 * sum((-1) ** (n + d) * d**3 for d in _divisors(n))
    table = torus_spectrum(Lattice.from_gram(_identity_gram(8)), 10)
    assert dict(table.entries) == expect


def test_e8_matches_theta_series():
    # E8 is even unimodular, so its dual is itself: r(2n) = 240 * sigma_3(n)
    # and no odd norms
    e8 = Lattice.from_gram([[F(x) for x in row] for row in E8_CARTAN])
    expect = {F(0): 1}
    for n in range(1, 9):
        expect[F(2 * n)] = 240 * sum(d**3 for d in _divisors(n))
    assert dict(torus_spectrum(e8, 16).entries) == expect


def test_milnor_pair_is_isospectral():
    # E8 + E8 and D16+ (Milnor 1964): two even unimodular lattices with
    # different root systems whose tori have equal spectra
    cartan = build("E8").cartan
    e8e8 = Lattice.from_gram(_block_diagonal(cartan, cartan))
    half = F(1, 2)
    cols = []
    for i in range(1, 15):  # e_i - e_{i+1} for i = 2..15, zero-based
        cols.append(tuple(1 if r == i else -1 if r == i + 1 else 0 for r in range(16)))
    cols.append(tuple(1 if r in (14, 15) else 0 for r in range(16)))
    cols.append((half,) * 16)
    d16 = Lattice.from_basis(tuple(zip(*cols)))
    assert d16.det_gram == 1 == e8e8.det_gram
    expect = ((F(0), 1), (F(2), 480), (F(4), 61920))
    assert torus_spectrum(e8e8, 4).entries == expect
    assert torus_spectrum(d16, 4).entries == expect
