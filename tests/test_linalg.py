import random
from collections import Counter
from fractions import Fraction as F

import pytest

from helpers import random_rational_basis, ref_det, ref_eliminate, ref_inverse
from liespec import build
from liespec.errors import DomainError
from liespec.lattices import Lattice, systole, torus_spectrum
from liespec.linalg import (
    adjugate,
    clear_denominators,
    eliminate,
    is_symmetric,
)


def _ref_minors(a):
    """The leading principal minors of a, by Fraction Gaussian elimination."""
    return [
        ref_det(tuple(tuple(map(F, row[: k + 1])) for row in a[: k + 1]))
        for k in range(len(a))
    ]


def _ref_positive_definite(a):
    return is_symmetric(a) and min(_ref_minors(a)) > 0


def _accepted_as_gram(a):
    try:
        Lattice.from_gram(a)
    except DomainError:
        return False
    return True


def _square_matrices():
    rng = random.Random(1968)
    out = [
        ((F(0), F(1)), (F(1), F(0))),  # nonsingular, first minor 0
        tuple(  # nonsingular, minors 0, -1, 0, 1
            tuple(F(int(j == i ^ 1)) for j in range(4)) for i in range(4)
        ),
        ((F(1), F(0)), (F(0), F(0))),
        ((F(0),),),
    ]
    for i in range(320):
        n = rng.randint(1, 8)
        denoms = (1,) if i % 2 else (1, 2, 3)
        a = [
            [F(rng.randint(-3, 3), rng.choice(denoms)) for _ in range(n)]
            for _ in range(n)
        ]
        kind = i % 4
        if kind == 1:  # symmetric, mostly indefinite
            a = [[a[r][c] + a[c][r] for c in range(n)] for r in range(n)]
        elif kind == 2:  # singular: a repeated row, or a zero matrix
            a[-1] = list(a[0]) if n > 1 else [F(0)]
        elif kind == 3:  # positive definite: A^T A + I
            a = [
                [sum(x[r] * x[c] for x in a) + (r == c) for c in range(n)]
                for r in range(n)
            ]
        out.append(tuple(map(tuple, a)))
    rng = random.Random(20260816)  # the criterion-01 sequence
    for _ in range(200):
        lat = Lattice.from_basis(random_rational_basis(rng, rng.randint(1, 4)))
        out += [lat.gram, ref_inverse(lat.gram)]
    out.append(tuple(tuple(map(F, row)) for row in build("E8").cartan))
    return out


def test_elimination_matches_fraction_references():
    # the pivots of the one fraction-free elimination, with no row
    # exchange, are the leading principal minors up to the first zero one;
    # with none zero, the last is the determinant and the Gauss-Jordan
    # block is the adjugate, and with one the adjugate is refused.  Against
    # Fraction Gaussian elimination on square matrices of dimension 1-8:
    # random integer and rational ones (singular, non-symmetric and
    # indefinite among them), the criterion-01 Grams and duals, and E8.
    # Lattice.from_gram accepts exactly the positive-definite ones.
    kinds = Counter()
    for a in _square_matrices():
        d = ref_det(a)
        ints, q = clear_denominators(a)
        minors = _ref_minors(ints)
        pivots, _, _ = eliminate(ints)
        stop = minors.index(0) + 1 if 0 in minors else len(a)
        assert pivots == minors[:stop]
        if pivots[-1] == 0:
            with pytest.raises(DomainError, match="zero leading"):
                adjugate(ints)
        else:
            # det a = p_{n-1} / q^n, adj(q*a) = det(q*a) (q*a)^{-1}
            assert F(pivots[-1], q ** len(a)) == d
            adj, d_ints = adjugate(ints)
            assert d_ints == d * q ** len(a)
            assert all(type(x) is int for row in adj for x in row)
            assert adj == [
                [d_ints * x / q for x in row] for row in ref_inverse(a)
            ]
        pd = _ref_positive_definite(a)
        assert _accepted_as_gram(a) == pd
        kinds[
            "singular" if d == 0 else "zero minor" if pivots[-1] == 0
            else "definite" if pd else "other"
        ] += 1
    assert kinds["zero minor"] >= 20
    assert min(kinds[k] for k in ("singular", "definite", "other")) >= 50


def test_elimination_matches_gauss_jordan_reference():
    # without an augmented block the rows above a pivot are not cleared,
    # and the pivots and pivot rows are those of full Gauss-Jordan with no
    # row exchange; with one, all three results are; on the integer forms
    # of the matrices above, ones stopped at a zero leading minor among
    # them
    stopped = 0
    for a in _square_matrices():
        ints, _ = clear_denominators(a)
        pivots, rows, right = ref_eliminate(ints)
        assert eliminate(ints) == (pivots, rows, [[] for _ in ints])
        unit = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        assert eliminate(ints, unit) == ref_eliminate(ints, unit)
        stopped += not pivots[-1]
    assert stopped >= 50


def test_cartan_pivots_are_the_positive_leading_minors():
    # every built-in Cartan matrix has positive leading minors, so the
    # elimination without row exchange runs to the end and its adjugate
    # is defined: the domain that lets the elimination exchange no row
    names = [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    names += [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    for name in names:
        cartan = build(name).cartan
        pivots, _, _ = eliminate(cartan)
        assert min(pivots) > 0, name
        assert pivots == _ref_minors(cartan), name
        assert adjugate(cartan)[1] == pivots[-1], name


def test_a_zero_leading_minor_stops_the_elimination_and_is_refused():
    # [[0, 1], [1, 0]] is nonsingular and indefinite, with first minor 0
    swap = [[0, 1], [1, 0]]
    assert eliminate(swap) == ([0], [], [[], []])
    with pytest.raises(DomainError, match="zero leading principal minor"):
        adjugate(swap)
    with pytest.raises(DomainError, match="gram matrix must be positive"):
        Lattice.from_gram(swap)


def _deep(x):
    """x as nested tuples, a snapshot that later changes to x cannot reach."""
    return tuple(map(_deep, x)) if isinstance(x, (list, tuple)) else x


def test_elimination_changes_none_of_its_inputs():
    # rows below the pivot are updated in place, so a and the augmented
    # block must be copied first, in both modes; a pivot row already
    # returned is replaced, never changed, which the reference comparison
    # above checks, and the table a lattice keeps must outlive every form
    # made from it
    for a in _square_matrices():
        ints, _ = clear_denominators(a)
        n = len(ints)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        block = [[x - 2 * y for x, y in zip(r, u)] for r, u in zip(ints, unit)]
        before = _deep((ints, unit, block))
        eliminate(ints)
        eliminate(ints, unit)
        eliminate(ints, block)
        assert _deep((ints, unit, block)) == before
    rng = random.Random(20260816)  # the criterion-01 sequence
    lats = [
        Lattice.from_basis(random_rational_basis(rng, rng.randint(1, 4)))
        for _ in range(40)
    ]
    for lat in lats + [Lattice.from_gram(build("E8").cartan)]:
        kept = _deep(lat._elimination)
        assert lat._form and lat._dual_form
        systole(lat)
        torus_spectrum(lat, 6)
        assert _deep(lat._elimination) == kept
