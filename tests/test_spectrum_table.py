import json
from fractions import Fraction as F

import pytest

from liespec.errors import DomainError
from liespec.spectrum import (
    SpectrumTable,
    canonical_json,
    table_distance,
    table_from_counts,
)


def _table(entries, cutoff=F(10), unit="raw", complete=True):
    return SpectrumTable(
        unit=unit, cutoff=cutoff, entries=tuple(entries), complete=complete
    )


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


def test_lookup_and_restrict():
    t = _table(((F(0), 1), (F(3, 8), 4), (F(1), 9)))
    assert t.multiplicity(F(3, 8)) == 4
    assert t.multiplicity(F(1, 3)) == 0
    assert t.multiplicity(F(1)) > 0
    r = t.restrict(F(1, 2))
    assert r.cutoff == F(1, 2)
    assert r.entries == ((F(0), 1), (F(3, 8), 4))
    with pytest.raises(DomainError):
        t.restrict(0.5)  # floats are not exact


def test_from_counts_merges_exactly():
    # integer numerators over a common scale, one entry per distinct value
    t = table_from_counts({6: 5, 0: 1, 2: 2}, 6, "four-pi-squared", F(2))
    assert t.entries == ((F(0), 1), (F(1, 3), 2), (F(1), 5))
    assert all(type(e) is F for e, _ in t.entries)
    assert t.unit == "four-pi-squared" and t.cutoff == F(2) and t.complete
    with pytest.raises(DomainError):
        table_from_counts({3: 1}, 1, "raw", F(2))  # above cutoff


def test_json_round_trip():
    t = _table(((F(0), 1), (F(5, 4), 12)), cutoff=F(3, 2))
    obj = json.loads(t.to_json())
    assert obj["entries"] == [["0", "1"], ["5/4", "12"]]
    back = SpectrumTable.from_json_dict(obj)
    assert back == t
    # canonical bytes: sorted keys, no whitespace, trailing newline
    assert t.to_json() == canonical_json(t.to_json_dict())
    assert t.to_json().endswith("\n")
    assert '"complete":true' in t.to_json()


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
