import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from liespec.catalog import (
    BUILTIN_EMBEDDINGS,
    BUILTIN_GROUPS,
    BUILTIN_LATTICES,
)
from liespec.errors import DomainError, InputError, UnsupportedDimensionError
from liespec.groups import GroupSpec
from liespec.isolation import (
    GammaVector,
    _grid_multipliers,
    finiteness_window,
    gamma_invariants,
    isolation_scan,
    torus_search,
)
from liespec import isolation, natred, spectrum
from liespec.lattices import (
    Lattice,
    congruent,
    dual,
    systole,
    torus_spectrum,
)
from liespec.natred import NatRedMetric, term_catalogue
from liespec.rootdata import build
from liespec.spectrum import linear_table, table_distance

from helpers import (
    random_rational_basis,
    ref_inverse,
    ref_isolation_scan,
    ref_natred_spectrum,
)

A1 = build("A1")
A2 = build("A2")
Z2 = BUILTIN_LATTICES["identity2"]
HEX = BUILTIN_LATTICES["hexagonal"]
STD = BUILTIN_EMBEDDINGS["a1-in-a2-standard"]
IDA2 = BUILTIN_EMBEDDINGS["identity-a2"]
SO4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]


def test_gamma_vector_validation():
    GammaVector(kind="group", dim=2, entries=(F(1), F(2)))
    GammaVector(kind="torus", dim=2, entries=(F(1), F(1), F(2)))
    with pytest.raises(DomainError):
        GammaVector(kind="flat", dim=1, entries=(F(1),))
    with pytest.raises(DomainError):
        GammaVector(kind="torus", dim=2, entries=(F(1), F(2)))
    with pytest.raises(DomainError):
        GammaVector(kind="group", dim=1, entries=(F(0),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gamma_invariants(STD), "a GroupSpec or a Lattice"),
        (lambda: torus_search([1], 0, 1, 1), "dimension must be positive"),
    ],
    ids=["gamma-of-an-embedding", "torus-search-in-dimension-0"],
)
def test_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_gamma_vector_needs_exact_types():
    # dim is read by exact_int and each entry by rat, as a Lattice reads
    # its entries: a float, a bool or None is refused, not kept
    for kind, dim, entries in (
        ("torus", 1, (0.5,)),
        ("group", 1, [True]),
        ("group", 1, (True,)),
        ("group", 1, (None,)),
        ("group", 1, "1"),
        ("group", 1.0, (F(1),)),
        ("group", True, (F(1),)),
        ("torus", 1.0, (F(1),)),
    ):
        with pytest.raises(InputError):
            GammaVector(kind=kind, dim=dim, entries=entries)
    # a list is kept as a tuple, and a string rational is read
    g = GammaVector(kind="group", dim=2, entries=[F(1), "2"])
    assert g.entries == (F(1), F(2)) and type(g.entries) is tuple
    assert g == GammaVector(kind="group", dim="2", entries=(1, 2))
    assert type(g.dim) is int


def test_group_invariants():
    g = gamma_invariants(BUILTIN_GROUPS["su2"])
    assert g.kind == "group" and g.entries == (F(3, 8),)
    assert gamma_invariants(BUILTIN_GROUPS["su3"]).entries == (F(4, 9),)
    # the marking computes on the simply connected cover, so the central
    # quotient reports the same vector as its cover
    assert gamma_invariants(BUILTIN_GROUPS["so3"]).entries == (F(3, 8),)
    two = GroupSpec(factors=(A1, A2), scales=(F(1, 2), F(1)))
    assert gamma_invariants(two).entries == (F(3, 4), F(4, 9))


def test_torus_invariants():
    g = gamma_invariants(Z2)
    assert g.kind == "torus" and g.dim == 2
    assert g.entries == (F(1), F(1), F(2))
    assert gamma_invariants(HEX).entries == (F(2, 3), F(2, 3), F(2, 3))


def test_torus_invariants_determine_dual_form():
    # on lattices with a basis and on the same Gram matrices without one
    rng = random.Random(77)
    for i in range(20):
        m = rng.randint(2, 4)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        if i % 2:
            lat = Lattice.from_gram(lat.gram)
        g = gamma_invariants(lat)
        q = ref_inverse(lat.gram)
        at = m
        # diagonal entries first, then pair sums in index order
        for j in range(m):
            assert g.entries[j] == q[j][j]
        for j in range(m):
            for k in range(j + 1, m):
                assert g.entries[at] == q[j][j] + 2 * q[j][k] + q[k][k]
                at += 1


def test_torus_invariants_are_eigenvalues():
    rng = random.Random(13)
    for _ in range(8):
        m = rng.randint(1, 3)
        lat = Lattice.from_basis(random_rational_basis(rng, m))
        g = gamma_invariants(lat)
        table = torus_spectrum(lat, max(g.entries))
        for val in g.entries:
            assert table.multiplicity(val) > 0


def test_scan_reports_no_neighbors():
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    report = isolation_scan(m, F(1, 10), 3, 4)
    assert report["grid"]["axes"] == 2
    assert report["grid"]["points"] == 9
    assert report["grid"]["compared"] == 8
    assert report["grid"]["skipped_inadmissible"] == []
    assert report["grid"]["skipped_equivalent"] == 0
    assert report["isospectral_neighbors"] == []
    assert report["min_table_distance"] >= 1


def test_scan_steps_one_only_center():
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    report = isolation_scan(m, F(1, 10), 1, 2)
    assert report["grid"]["points"] == 1
    assert report["grid"]["compared"] == 0
    assert report["isospectral_neighbors"] == []
    assert report["min_table_distance"] is None


def test_scan_skips_equivalent_when_subgroup_fills_group():
    # K = G: the base direction is vacuous, so points differing only in t
    # define the center's metric and are skipped rather than reported as
    # isospectral neighbors
    m = NatRedMetric(emb=IDA2, base_scale=1, fiber_scales=(F(1, 2),))
    report = isolation_scan(m, F(1, 10), 3, 3)
    assert report["grid"]["skipped_equivalent"] == 2
    assert report["isospectral_neighbors"] == []


PRINCIPAL = BUILTIN_EMBEDDINGS["a1-in-a2-principal"]


def _grid_points(m, radius, steps):
    """(metric, compared) for each grid point with no fiber scale equal to
    its base scale; ``compared`` is false for the center and for points
    defining the center's metric."""
    center = (m.base_scale,) + m.fiber_scales
    fills = sum(f.dim_g for f in m.emb.factors) == m.group.dim_g
    points = []
    for combo in product(_grid_multipliers(radius, steps), repeat=len(center)):
        scales = tuple(u * s for u, s in zip(combo, center))
        base, fibers = scales[0], scales[1:]
        if base in fibers:
            continue
        point = NatRedMetric(
            emb=m.emb, base_scale=base, fiber_scales=fibers
        )
        skipped = scales == center or (fills and fibers == m.fiber_scales)
        points.append((point, not skipped))
    return points


def _table(catalogue, m, cutoff):
    """m's table at ``cutoff`` from a (den, rows) catalogue."""
    den, rows = catalogue
    scales = (m.base_scale,) + m.fiber_scales
    return linear_table(rows, den, scales, F(cutoff))


def test_scan_matches_per_point_reference():
    centers = [
        (STD, 1, (F(1, 2),), F(1, 10), 3, 5),
        (IDA2, 1, (F(1, 2),), F(1, 10), 3, 4),
        (SO4, F(3, 2), (F(1, 2), F(5, 2)), F(1, 5), 3, 4),
        # even steps: the center is not a grid point
        (STD, 1, (F(1, 2),), F(1, 10), 4, 5),
        (SO4, F(3, 2), (F(1, 2), F(5, 2)), F(1, 5), 2, 3),
        # one step, and a grid of radius 0: only the center
        (STD, 1, (F(1, 2),), F(1, 3), 1, 5),
        (STD, 1, (F(1, 2),), 0, 1, 5),
        (PRINCIPAL, 1, (F(3, 4),), F(1, 4), 3, 5),
        # the grids cross fiber = base: once through a grid point
        (STD, 1, (F(9, 11),), F(1, 10), 3, 5),
        (STD, 1, (F(21, 20),), F(1, 10), 4, 5),
        # below the first nonzero eigenvalue every point is a neighbor
        (SO4, 1, (F(1, 2), F(1, 3)), F(1, 10), 3, F(1, 10)),
    ]
    for emb, t, fibers, radius, steps, cutoff in centers:
        m = NatRedMetric(
            emb=emb, base_scale=t, fiber_scales=fibers
        )
        report = isolation_scan(m, radius, steps, cutoff)
        assert report == ref_isolation_scan(m, radius, steps, cutoff)
        # each point's table, from one catalogue at the scan's budget
        center = (m.base_scale,) + m.fiber_scales
        catalogue = term_catalogue(
            m.emb, cutoff * (1 + radius) * max(center)
        )
        center_table = _table(catalogue, m, cutoff)
        distances = []
        for point, compared in _grid_points(m, radius, steps):
            table = _table(catalogue, point, cutoff)
            assert table == ref_natred_spectrum(point, cutoff)
            if compared:
                distances.append(table_distance(table, center_table))
        assert report["grid"]["compared"] == len(distances)
        assert report["min_table_distance"] == min(
            filter(None, distances), default=None
        )
        assert len(report["isospectral_neighbors"]) == distances.count(0)
    assert report["grid"]["compared"] == 26  # the last center's
    assert len(report["isospectral_neighbors"]) == 26
    assert report["min_table_distance"] is None
    # radius 0 with more than one step would repeat the center uncounted
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    with pytest.raises(DomainError):
        isolation_scan(m, 0, 3, 5)


def test_scan_prunes_at_the_grid_floor():
    # a row above the cutoff at the center falls below it at the corner of
    # largest scales, so only a prune at the grid's floor keeps it
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    radius, steps, cutoff = F(1, 5), 2, 2
    center = (m.base_scale,) + m.fiber_scales
    corner = tuple((1 + radius) * s for s in center)
    catalogue = term_catalogue(STD, cutoff * (1 + radius) * max(center))
    den, rows = catalogue

    def value(row, scales):
        t, t_1 = scales
        return (row[0] / t + row[1] / t_1) / den

    assert any(
        value(row, corner) <= cutoff < value(row, center)
        for row, _ in rows
    )
    report = isolation_scan(m, radius, steps, cutoff)
    assert report == ref_isolation_scan(m, radius, steps, cutoff)
    assert report["min_table_distance"] == min(
        table_distance(
            _table(catalogue, point, cutoff), _table(catalogue, m, cutoff)
        )
        for point, compared in _grid_points(m, radius, steps)
        if compared
    )


def test_scan_keeps_a_row_on_the_cutoff_at_the_grid_floor():
    # the cutoff is the first eigenvalue at the corner of largest scales,
    # so that eigenvalue's row lies exactly on the limit at the grid's
    # floor: the prune keeps it, and the corner is no neighbor of the center
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    radius, steps = F(1, 5), 2
    corner = NatRedMetric(
        emb=STD, base_scale=1 + radius, fiber_scales=((1 + radius) / 2,)
    )
    cutoff = ref_natred_spectrum(corner, 2).lambda1()
    report = isolation_scan(m, radius, steps, cutoff)
    assert report == ref_isolation_scan(m, radius, steps, cutoff)
    assert report["grid"]["compared"] == 4
    assert {"t": "6/5", "t_i": ["3/5"]} not in report["isospectral_neighbors"]


def test_scan_keeps_a_row_on_the_cutoff_at_a_grid_point():
    # the cutoff is an eigenvalue of a grid point that is neither the center
    # nor the grid's floor, so that eigenvalue's row lies exactly on the
    # limit at that point alone: the point's own limit test keeps it
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    radius, steps, cutoff = F(1, 10), 3, F(3, 4)
    point = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(9, 20),))
    assert ref_natred_spectrum(point, 1).multiplicity(cutoff) > 0
    report = isolation_scan(m, radius, steps, cutoff)
    assert report == ref_isolation_scan(m, radius, steps, cutoff)
    assert report["min_table_distance"] == 24


def test_scan_makes_no_metric_or_table_per_point(monkeypatch):
    # a 25-point scan evaluates its points on integers: a return to one
    # metric or linear_table per point fails here, and so does a second
    # count of the center or a Fraction formatted for a point the report
    # does not list
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        NatRedMetric, "__init__", counted("metric", NatRedMetric.__init__)
    )
    for module in (natred, spectrum):
        monkeypatch.setattr(
            module,
            "linear_table",
            counted("linear_table", module.linear_table),
        )
    for module in (isolation, spectrum):
        monkeypatch.setattr(
            module, "_counts", counted("_counts", module._counts)
        )
    monkeypatch.setattr(isolation, "fmt", counted("fmt", isolation.fmt))
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    calls.clear()
    report = isolation_scan(m, F(1, 10), 5, 4)
    assert report["grid"]["compared"] == 24
    assert calls["metric"] <= 1 and calls["linear_table"] <= 1, calls
    assert calls["_counts"] == 1
    # the radius and the cutoff, and nothing per point
    assert calls["fmt"] == 2
    # one point with its fiber scale on its base scale, listed: its t and
    # its t_i formatted, once each
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(9, 11),))
    calls.clear()
    report = isolation_scan(m, F(1, 10), 3, 4)
    assert report["grid"]["skipped_inadmissible"] == [
        {"t": "9/10", "t_i": ["9/10"]}
    ]
    assert report["isospectral_neighbors"] == []
    assert calls["_counts"] == 1
    assert calls["fmt"] == 2 + 2


def test_scan_validation():
    m = NatRedMetric(emb=STD, base_scale=1, fiber_scales=(F(1, 2),))
    with pytest.raises(DomainError):
        isolation_scan(m, 1, 3, 2)
    with pytest.raises(DomainError):
        isolation_scan(m, F(1, 2), 0, 2)
    # refused at entry, before any catalogue is built
    with pytest.raises(DomainError, match="cutoff must be nonnegative"):
        isolation_scan(m, F(1, 10), 3, -1)


def test_finiteness_window():
    assert finiteness_window(2, 3, 2, 1) == F(1, 36)
    assert finiteness_window(F(1, 2), 1, 3, 2) == 16
    with pytest.raises(DomainError):
        finiteness_window(0, 1, 2, 1)
    with pytest.raises(DomainError):
        finiteness_window(1, 1, 2, 0)
    for n in (0, -3):  # torus_search refuses these too
        with pytest.raises(DomainError, match="dimension must be positive"):
            finiteness_window(1, 1, n, 1)


def test_homothety_invariant_even():
    # lambda1^(n/2) * vol, from the table's lambda1, is exact for even n
    assert torus_spectrum(Z2, 4).lambda1() == 1
    # rescale the lattice: eigenvalues divide by r^2, volume gains r^n
    for r in (2, 3, F(1, 2)):
        scaled = Lattice.from_basis(
            tuple(tuple(r * x for x in row) for row in ((1, 0), (0, 1)))
        )
        t = torus_spectrum(scaled, 4)
        assert t.lambda1() * r**2 == 1


def test_homothety_invariant_odd():
    # for odd n the square lambda1^n * vol^2 keeps it rational
    eye3 = Lattice.from_basis(
        ((F(1), 0, 0), (0, F(1), 0), (0, 0, F(1)))
    )
    assert torus_spectrum(eye3, 2).lambda1() ** 3 == 1
    doubled = Lattice.from_basis(
        ((F(2), 0, 0), (0, F(2), 0), (0, 0, F(2)))
    )
    td = torus_spectrum(doubled, 2)
    assert td.lambda1() ** 3 * 8**2 == 1


def test_torus_search_small():
    found = torus_search([1, 2], 2, F(1, 2), F(1, 2))
    assert any(congruent(lat, Z2) for lat in found)
    for i, a in enumerate(found):
        # reconstruction respects the requested bounds and value set
        assert systole(dual(a)) >= F(1, 2)
        assert a.det_gram >= F(1, 4)  # volume at least 1/2
        assert set(gamma_invariants(a).entries) <= {F(1), F(2)}
        for b in found[i + 1 :]:
            assert not congruent(a, b)


def test_torus_search_keeps_tori_on_its_bounds():
    # volume exactly vol_min: Z^2, whose dual has determinant 1, at vol_min 1
    on_volume = torus_search(["1", "2"], 2, "1/2", "1")
    assert len(on_volume) == 2
    assert any(congruent(lat, Z2) for lat in on_volume)
    assert max(dual(lat).det_gram for lat in on_volume) == 1
    # dual systole exactly lam_min: three of the four tori
    on_systole = torus_search(["1", "2"], 2, "1", "1/2")
    assert sorted(systole(dual(lat)) for lat in on_systole) == [1, 1, 1, 2]


def test_torus_search_recovers_hexagonal():
    found = torus_search([F(2, 3)], 2, F(1, 2), 1)
    assert len(found) == 1
    assert congruent(found[0], HEX)


def test_torus_search_edges():
    assert torus_search([], 2, 1, 1) == []
    assert torus_search([F(1, 2)], 2, 1, 1) == []  # not PD after filling
    one = torus_search([1], 1, F(1, 2), F(1, 2))
    assert len(one) == 1 and one[0].gram == ((F(1),),)
    with pytest.raises(UnsupportedDimensionError):
        torus_search([1], 5, 1, 1)
    with pytest.raises(DomainError):
        torus_search([1], 2, 0, 1)


def test_torus_search_refuses_a_string_value_set():
    # "12" would be read as the set {1, 2}; a sequence holding it is {12}
    assert torus_search(["12"], 2, "1/2", "1/2") == []
    assert len(torus_search(["1", "2"], 2, "1/2", "1/2")) == 4
    for values in ("12", b"12", bytearray(b"12")):
        with pytest.raises(InputError):
            torus_search(values, 2, "1/2", "1/2")
