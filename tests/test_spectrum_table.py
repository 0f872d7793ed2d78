import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ref_table, ref_table_distance, ref_table_json
from liespec.catalog import (
    BUILTIN_EMBEDDINGS,
    BUILTIN_GROUPS,
    BUILTIN_LATTICES,
)
from liespec.errors import DomainError, InputError
from liespec.groups import biinvariant_spectrum
from liespec.lattices import torus_spectrum
from liespec.natred import (
    NatRedMetric, natred_spectrum, normal_quotient_spectrum
)
from liespec.rational import rat, rat_cutoff
from liespec.spectrum import (
    UNITS,
    SpectrumTable,
    _distance,
    table_distance,
    table_from_counts,
)


def _table(entries, cutoff=F(10), unit="raw"):
    """A table of (rational eigenvalue, multiplicity) pairs."""
    return ref_table(unit, cutoff, [(F(e), m) for e, m in entries])


def _from_json(obj):
    """The table that ``to_json`` wrote ``obj`` from."""
    entries = [(F(e), int(m)) for e, m in obj["entries"]]
    assert obj["complete"] is True
    return ref_table(obj["unit"], obj["cutoff"], entries)


def test_validation():
    _table(((F(0), 1), (F(1, 2), 3)))
    with pytest.raises(DomainError):
        _table(((F(-1), 1),))
    with pytest.raises(DomainError):
        _table(((F(1), 1), (F(1), 2)))  # not strictly increasing
    with pytest.raises(DomainError):
        _table(((F(2), 1), (F(1), 2)))
    with pytest.raises(DomainError):
        _table(((F(1), 0),))
    with pytest.raises(DomainError):
        _table(((F(11), 1),))  # above cutoff
    with pytest.raises(DomainError):
        _table((), cutoff=F(-1))  # a cutoff is nonnegative
    with pytest.raises(DomainError):
        _table(((F(1), True),))  # a bool is not a multiplicity
    # the integer form is canonical: values reduced over a positive scale
    SpectrumTable("raw", F(1), 3, (0, 2), (1, 1))
    with pytest.raises(DomainError):
        SpectrumTable("raw", F(1), 4, (0, 2), (1, 1))
    with pytest.raises(DomainError):
        SpectrumTable("raw", F(1), -1, (0,), (1,))
    with pytest.raises(DomainError):
        SpectrumTable("raw", F(1), 1, (0, 1), (1,))
    with pytest.raises(DomainError):
        SpectrumTable("raw", F(1), 1, (F(1, 2),), (1,))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SpectrumTable("bogus", 1, 1, (0,), (1,)), "unknown unit"),
    ],
    ids=["unknown-unit"],
)
def test_refusals(make, message):
    with pytest.raises(DomainError, match=message):
        make()


def test_constructor_refuses_what_names_no_integer():
    # a bool is an int equal to 0 or 1, and F(1) and 1.0 equal 1, but none
    # is an integer numerator, scale or multiplicity
    t = SpectrumTable("raw", F(1), 1, (0, 1), (1, 2))
    for scale, values, mults in (
        (True, (False, True), (1, 2)),
        (True, (0, 1), (1, 2)),
        (1, (False, True), (1, 2)),
        (1, (0, True), (1, 2)),
        (1.0, (0, 1), (1, 2)),
        (F(1), (0, 1), (1, 2)),
        (1, (0, 1.0), (1, 2)),
        (1, (0, F(1)), (1, 2)),
        (1, (0, "1"), (1, 2)),
        (1, (0, 1), (1, 2.0)),
        (1, (0, 1), (1, True)),
    ):
        with pytest.raises(DomainError):
            SpectrumTable("raw", F(1), scale, values, mults)
    # nor is a float or bool cutoff exact, and a list of values or mults
    # can change after the checks, and makes a table that cannot be hashed
    for cutoff, values, mults in (
        (1.5, (), ()),
        (True, (), ()),
        (True, (0, 1), (1, 2)),
        ("1", (), ()),
        (F(1), [0, 1], (1, 2)),
        (F(1), (0, 1), [1, 2]),
        (F(1), [], []),
    ):
        with pytest.raises(DomainError):
            SpectrumTable("raw", cutoff, 1, values, mults)
    # an int cutoff is exact
    assert SpectrumTable("raw", 1, 1, (0, 1), (1, 2)) == t
    # every table is complete: a class constant, not a field to set
    assert t.complete is True and SpectrumTable.complete is True
    with pytest.raises(TypeError):
        SpectrumTable("raw", F(1), 1, (0, 1), (1, 2), True)
    with pytest.raises(TypeError):
        SpectrumTable("raw", F(1), 1, (0, 1), (1, 2), complete=True)


def test_multiplicity_check_matches_per_item_rule():
    # the set-of-types and min check rejects exactly the tables that a
    # per-item "type(m) is int and m >= 1" rejects, with a DomainError
    cases = [
        (), (1,), (0,), (-1,), (True,), (1, True), (1.0,), (F(1),),
        (2, "3"), (1, 0, 5), (None,), (3, 2**70), (2**70, -(2**70)),
        (1, 1, 1), (False, 2),
    ]
    for mults in cases:
        expected = all(type(m) is int and m >= 1 for m in mults)
        values = tuple(range(len(mults)))
        try:
            SpectrumTable("raw", F(100), 1, values, mults)
            accepted = True
        except DomainError as exc:
            assert str(exc) == "multiplicities must be positive integers"
            accepted = False
        assert accepted == expected, mults


def test_rat_cutoff_matches_rat_and_a_sign_check():
    # a Fraction passes through and its sign is read from the numerator;
    # every other value is read as ``rat`` reads it, then checked
    def reference(value):
        cutoff = rat(value)
        if cutoff < 0:
            raise DomainError("cutoff must be nonnegative")
        return cutoff

    for value in (
        F(3, 2), F(-1, 2), 0, -1, True, 1.5, "25/2", " 3", "-1", None,
    ):
        try:
            want = reference(value)
        except Exception as exc:
            with pytest.raises(type(exc)):
                rat_cutoff(value)
        else:
            got = rat_cutoff(value)
            assert type(got) is F and got == want, value


def test_lookup():
    t = _table(((F(0), 1), (F(3, 8), 4), (F(1), 9)))
    assert t.multiplicity(F(3, 8)) == 4
    assert t.multiplicity(F(1, 3)) == 0
    assert t.multiplicity(F(1)) > 0
    assert t.multiplicity("3/8") == 4
    with pytest.raises(InputError):
        t.multiplicity(0.375)  # floats are not exact


def test_from_counts_merges_exactly():
    # integer numerators over a common scale, one entry per distinct value
    t = table_from_counts({6: 5, 0: 1, 2: 2}, 6, "four-pi-squared", F(2))
    assert t.entries == ((F(0), 1), (F(1, 3), 2), (F(1), 5))
    assert all(type(e) is F for e, _ in t.entries)
    assert t.unit == "four-pi-squared" and t.cutoff == F(2) and t.complete
    # stored over the reduced scale 3
    assert (t.scale, t.values, t.mults) == (3, (0, 1, 3), (1, 2, 5))
    with pytest.raises(DomainError):
        table_from_counts({3: 1}, 1, "raw", F(2))  # above cutoff


def test_json_round_trip():
    t = _table(((F(0), 1), (F(5, 4), 12)), cutoff=F(3, 2))
    obj = json.loads(t.to_json())
    assert obj["entries"] == [["0", "1"], ["5/4", "12"]]
    assert _from_json(obj) == t
    # canonical bytes: sorted keys, no whitespace, trailing newline
    assert t.to_json() == ref_table_json(t)
    assert t.to_json().endswith("\n")
    assert '"complete":true' in t.to_json()


def _computed_tables():
    return [
        torus_spectrum(BUILTIN_LATTICES["hexagonal"], 7),
        torus_spectrum(BUILTIN_LATTICES["identity3"], F(25, 2)),
        biinvariant_spectrum(BUILTIN_GROUPS["su3"], 4),
        biinvariant_spectrum(BUILTIN_GROUPS["so3"], F(7, 2)),
        normal_quotient_spectrum(
            BUILTIN_EMBEDDINGS["a1-in-a2-standard"], 1, 3
        ),
        natred_spectrum(
            NatRedMetric(
                emb=BUILTIN_EMBEDDINGS["a1xa1-in-b2"],
                base_scale=F(1),
                fiber_scales=(F(1, 2), F(1, 3)),
            ),
            5,
        ),
    ]


def test_computed_tables_round_trip_without_entries():
    for t in _computed_tables():
        text = t.to_json() + t.to_csv() + t.to_pretty()
        # no computed table, rendered in every format, made its entries
        assert "entries" not in t.__dict__
        back = _from_json(json.loads(t.to_json()))
        assert back == t  # the lcm of the denominators is the scale
        assert back.to_json() + back.to_csv() + back.to_pretty() == text
        assert len(t.values) >= 2


def _random_tables(count, seed=20261018):
    """Tables of both units at int and p/q cutoffs, every seventh empty,
    with numerators, scales and multiplicities up to about 2**72."""
    rng = random.Random(seed)
    for i in range(count):
        scale = rng.choice((1, rng.randrange(1, 60), rng.randrange(1, 2**72)))
        counts = {
            rng.randrange(2**72): rng.randrange(1, 2**70)
            for _ in range(i % 7)
        }
        top = max(counts, default=0)
        if i // 2 % 2:
            cutoff = top // scale + rng.randrange(1, 9)
        else:
            cutoff = F(top * 3 + rng.randrange(1, 9), scale * 3)
        yield table_from_counts(counts, scale, UNITS[i % 2], cutoff)


def test_to_json_writes_the_reference_bytes():
    tables = _computed_tables() + list(_random_tables(200))
    for t in tables:
        assert t.to_json() == ref_table_json(t)
    # every case the writer meets: both units, int and p/q cutoffs, the
    # empty table, and numerators and multiplicities past 2**64
    assert {t.unit for t in tables} == set(UNITS)
    assert {type(t.cutoff) for t in tables} == {int, F}
    assert any(t.cutoff.denominator > 1 for t in tables)
    assert any(not t.values for t in tables)
    assert any(t.values[-1] > 2**64 for t in tables if t.values)
    assert any(max(t.mults) > 2**64 for t in tables if t.mults)


def test_csv_and_pretty():
    t = _table(((F(0), 1), (F(3, 8), 4)))
    csv = t.to_csv()
    assert csv.splitlines()[0] == "eigenvalue,multiplicity"
    assert "3/8,4" in csv
    pretty = t.to_pretty()
    assert "3/8" in pretty and "x4" in pretty


def test_table_distance_symmetric_difference():
    a = _table(((F(0), 1), (F(1), 4), (F(2), 2)))
    b = _table(((F(0), 1), (F(1), 6), (F(3), 5)))
    assert table_distance(a, b) == 2 + 2 + 5
    assert table_distance(a, a) == 0
    assert table_distance(a, b) == table_distance(b, a)


def test_table_distance_refuses_another_unit_or_cutoff():
    # at equal cutoffs, a torus table is in units of 4 pi^2 and a group
    # table in raw units, so their entries name different eigenvalues
    torus = torus_spectrum(BUILTIN_LATTICES["hexagonal"], 3)
    group = biinvariant_spectrum(BUILTIN_GROUPS["su2"], 3)
    assert (torus.cutoff, torus.unit) == (group.cutoff, "four-pi-squared")
    a = _table(((F(0), 1), (F(1), 4)))
    for x, y in (
        (torus, group),
        (a, _table(((F(0), 1), (F(1), 4)), cutoff=F(1))),
        (a, _table(((F(0), 1), (F(1), 4)), unit="four-pi-squared")),
    ):
        with pytest.raises(DomainError):
            table_distance(x, y)
        with pytest.raises(DomainError):
            table_distance(y, x)


# Random tables as integer counts over a random, usually unreduced, scale;
# the reference reads them as Fraction-keyed dicts.
_counts = st.dictionaries(
    st.integers(0, 60), st.integers(1, 9), max_size=12
)
_scales = st.integers(1, 12)


def _pair(counts, scale, cutoff):
    kept = {v: m for v, m in counts.items() if F(v, scale) <= cutoff}
    table = table_from_counts(kept, scale, "raw", cutoff)
    return table, {F(v, scale): m for v, m in kept.items()}


@settings(max_examples=200, deadline=None)
@given(
    _counts, _scales, _counts, _scales, st.integers(1, 6),
    st.fractions(0, 8, max_denominator=12),
)
def test_integer_operations_match_fraction_references(
    ca, sa, cb, sb, k, probe
):
    cutoff = F(20)
    a, ref_a = _pair(ca, sa, cutoff)
    b, ref_b = _pair(cb, sb, cutoff)
    assert dict(a.entries) == ref_a
    assert [e for e, _ in a.entries] == sorted(ref_a)
    # the same eigenvalues over another scale make an equal table
    same = table_from_counts(
        {v * k: m for v, m in ca.items() if F(v, sa) <= cutoff},
        sa * k, "raw", cutoff,
    )
    assert same == a and hash(same) == hash(a)
    assert (a == b) == (ref_a == ref_b)
    assert table_distance(a, b) == ref_table_distance(a, b)
    assert table_distance(b, a) == table_distance(a, b)
    assert a.multiplicity(probe) == ref_a.get(probe, 0)
    positive = [e for e in ref_a if e > 0]
    assert a.lambda1() == (min(positive) if positive else None)


# numerators from a small range, so rows repeat them and meet the counts
_numerators = st.integers(0, 6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(_numerators, st.integers(1, 4)), max_size=10),
    st.dictionaries(_numerators, st.integers(1, 4), max_size=7),
)
@example(rows=[(2, 1), (2, 2), (5, 1)], counts={2: 2, 3: 1})
def test_distance_of_rows_against_counts_is_the_sum_of_differences(
    rows, counts
):
    # brute force: merge the rows into one count, then sum |a_v - b_v| over
    # every numerator of either side
    merged = Counter()
    for v, mult in rows:
        merged[v] += mult
    want = sum(
        abs(merged[v] - counts.get(v, 0)) for v in {*merged, *counts}
    )
    values = [v for v, _ in rows]
    mults = [mult for _, mult in rows]
    assert _distance(values, mults, counts) == want
