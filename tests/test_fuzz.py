"""The command line's exit-code contract under drawn argument lists.

Argument lists for all nine commands are drawn from builtin names and
near-valid descriptor JSON: wrong types, empty arrays, bools, floats,
zero and negative rationals, digit strings next to the interpreter's
4,300-digit limit on int strings, and missing or repeated flags.  No work
budget bounds a job yet, so sizes stay small: dimensions and ranks up to
3, cutoffs up to 6 (3 for a scan, of at most 3 steps), scales up to 2,
weight coordinates up to 3, torus searches in dimension 1 or 2 over at
most 3 values, and a long digit string only where it makes the work
smaller (a denominator) or is refused (past the limit).

Every case must exit 0, 1 or 2; print exactly one canonical JSON document
under ``--format json`` and for every error; print the same bytes when run
again; and, as a table printed with exit 0, parse back through the
validating ``SpectrumTable`` constructor to the same bytes.  An argument
list whose only fault is one negative value, a rational or a list that
starts with "-" and a digit, never fails as a usage error: the value is
read as a value, not as a flag.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import ref_table
from liespec.cli import main
from liespec.spectrum import canonical_json
from test_cli import TOO_LONG_TABLE

_LIMIT = sys.get_int_max_str_digits()
# 10^(n - 1), a string of n digits, at and next to the limit
_LONG = ["1" + "0" * (n - 1) for n in (_LIMIT - 1, _LIMIT, _LIMIT + 1)]
_PAST = _LONG[-1]  # refused wherever it is read
_BIG_INT = "<a JSON integer past the limit>"  # spliced in after json.dumps
# what a corrupted descriptor holds where its grammar wants something else
_WRONG = (
    True, False, None, 2.5, 1.0, [], {}, [[]], "", "abc", "1/0", "0", "-1",
    "-1/2", _PAST, _BIG_INT,
)


def _mostly(common, rare, odds=8):
    """``common`` drawn ``odds`` times as often as ``rare``."""
    return st.sampled_from([common] * odds + [rare]).flatmap(lambda s: s)


def _small(top):
    """Positive rational strings up to ``top``, integers, halves and
    thirds; now and then zero or a negative."""
    positive = st.builds(
        Fraction, st.integers(1, 3 * top), st.sampled_from([1, 2, 3])
    ).filter(lambda q: q <= top).map(str)
    return _mostly(positive, st.sampled_from(["0", "-1", "-1/2"]))


def _rational(top):
    """A rational string that makes no job larger: small, one over a long
    digit string, or a string that is refused."""
    return _mostly(_small(top), st.sampled_from(
        ["1/" + d for d in _LONG]
        + [_PAST, "1/0", "abc", "", "0.5", "1e-3", " 1"]
    ))


def _nodes(obj, path=()):
    """The path of every node under ``obj``, its root left out."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


@st.composite
def _near(draw, valid):
    """The JSON text of a ``valid`` object: as drawn, mostly, or with one
    node replaced by a wrong value or dropped."""
    obj = copy.deepcopy(draw(valid))
    nodes = list(_nodes(obj))
    how = draw(st.sampled_from([None] * 4 + ["drop", "replace"]))
    if how and nodes:
        *path, last = draw(st.sampled_from(nodes))
        parent = obj
        for key in path:
            parent = parent[key]
        if how == "drop":
            del parent[last]
        else:
            parent[last] = draw(st.sampled_from(_WRONG))
    return json.dumps(obj).replace(json.dumps(_BIG_INT), _PAST)


@st.composite
def _matrix(draw, entry, diagonal=None):
    """A k x k matrix, 1 <= k <= 3, symmetric about ``diagonal`` entries
    when given."""
    k = draw(st.integers(1, 3))
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    for i in range(k if diagonal is not None else 0):
        rows[i][i] = draw(diagonal)
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


_lattice = st.one_of(
    st.sampled_from(["identity2", "identity3", "hexagonal"]),
    _near(st.one_of(
        st.fixed_dictionaries({"gram": _matrix(
            st.sampled_from(["0", "0", "1/2", "-1/2", "1"]),
            diagonal=_rational(4),
        )}),
        st.fixed_dictionaries(
            {"basis": _matrix(st.sampled_from(["0", "1", "-1", "2"]))},
            optional={"dim": st.integers(1, 3).map(str)},
        ),
    )),
    st.sampled_from(["{", "[]", '{"gram": "identity2"}', "no-such-file"]),
)

_factors = st.lists(
    st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C3", "G2"]),
    min_size=1, max_size=2,
)
_group = st.one_of(
    st.sampled_from(["su2", "su3", "so3"]),
    _near(_factors.flatmap(lambda factors: st.fixed_dictionaries(
        {"factors": st.just(factors)},
        optional={
            "scales": st.lists(
                _rational(2), min_size=len(factors), max_size=len(factors)
            ),
            "gamma": st.lists(
                st.lists(st.lists(_small(1), min_size=1, max_size=3),
                         min_size=len(factors), max_size=len(factors)),
                max_size=1,
            ),
        },
    ))),
    st.sampled_from(["{", '{"factors": ["E9"]}', '{"factors": ["A0"]}']),
)

_BUILTIN_EMBEDDINGS = [
    ("A2", "a1-in-a2-standard", 1), ("A2", "a1-in-a2-principal", 1),
    ("B2", "a1xa1-in-b2", 2), ("A2", "identity-a2", 1),
]
# an A1 or A1xA1 in a rank-2 group by an integer restriction
_restricted = st.tuples(
    st.sampled_from(["A2", "B2", "G2"]), st.sampled_from([1, 2])
).flatmap(lambda spec: st.fixed_dictionaries({
    "ambient": st.just(spec[0]),
    "factors": st.just(["A1"] * spec[1]),
    "restriction": st.lists(
        st.lists(st.integers(-2, 4).map(str), min_size=2, max_size=2),
        min_size=spec[1], max_size=spec[1],
    ),
}))
# (group, embedding, its number of factors): a builtin's name, or a
# restriction as above
_embedding = _mostly(
    st.sampled_from(_BUILTIN_EMBEDDINGS),
    _restricted.map(lambda e: (e["ambient"], e, len(e["factors"]))),
    odds=3,
)
# the value of --embedding
_embedding_arg = st.one_of(
    st.sampled_from([name for _, name, _ in _BUILTIN_EMBEDDINGS]),
    _near(_restricted),
    st.sampled_from(["{", '{"ambient": "B2"}', "no-such-embedding"]),
)
_metric = st.one_of(
    _near(_embedding.flatmap(lambda spec: st.fixed_dictionaries({
        "group": st.just(spec[0]),
        "embedding": st.just(spec[1]),
        "t": _rational(2),
        "t_i": st.lists(_rational(2), min_size=spec[2], max_size=spec[2]),
    }))),
    st.sampled_from(["{}", '{"group": "B2"}', "a1xa1-in-b2"]),
)

_cutoff = _rational(6)
_window = _mostly(_rational(6), st.sampled_from(_LONG), odds=3)
_dim = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["2.0", "1/2"]))
_wrong_list = st.sampled_from(["", "a", "1.5,0", "1,,0", _PAST])
_weight = _mostly(
    st.lists(st.integers(-1, 3).map(str), min_size=1, max_size=3).map(
        ",".join
    ),
    _wrong_list,
)
_values = _mostly(
    st.lists(_small(3), min_size=1, max_size=3).map(",".join), _wrong_list
)
_steps = st.sampled_from(["1", "2", "3", "0", "-1", "x", "5/2"])
_radius = st.sampled_from(["0", "1/10", "1/4", "1/2", "1", "-1/2", "abc"])
# dimension 1 or 2, or one that is refused before any search
_search_dim = st.sampled_from(["1", "2", "2", "0", "-1", "5", "2.0", "3/2"])
# what --values, --weight, --cutoff and the like are given, negative
_NEGATIVE = ["-1", "-1/2", "-2/3", "-1,0", "-1,2", "-1/2,1"]

# command: its options, each with the strategy of its value
_OPTIONS = {
    "torus-spectrum": (("gram", _lattice), ("cutoff", _cutoff)),
    "group-spectrum": (("spec", _group), ("cutoff", _cutoff)),
    "natred-spectrum": (("metric", _metric), ("cutoff", _cutoff)),
    "gamma": (("gram", _lattice), ("spec", _group)),
    "window": (
        ("lambda1", _window),
        ("vol", _window),
        ("dim", _dim),
        ("const", _window),
    ),
    "branch": (("embedding", _embedding_arg), ("weight", _weight)),
    "scan": (
        ("metric", _metric),
        ("radius", _radius),
        ("steps", _steps),
        ("cutoff", _rational(3)),
    ),
    "torus-search": (
        ("values", _values),
        ("dim", _search_dim),
        ("lambda-min", _small(2)),
        ("vol-min", _small(2)),
    ),
    "validate-embedding": (("embedding", _embedding_arg),),
}


@st.composite
def _argv(draw, negative=False) -> list:
    """An argument list: mostly whole, now and then with one fault; with
    ``negative``, whole but for one option's negative value."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = list(_OPTIONS[command])
    if command == "gamma":  # --gram or --spec
        del options[draw(st.integers(0, 1))]
    # mostly none: a missing or repeated flag, an unknown one, a bad format
    fault = None if negative else draw(st.sampled_from(
        [None] * 6 + ["drop", "repeat", "--bogus", "--format=xml"]
    ))
    if fault == "drop":
        del options[draw(st.integers(0, len(options) - 1))]
    if fault == "repeat":
        options.append(draw(st.sampled_from(_OPTIONS[command])))
    if negative:
        k = draw(st.integers(0, len(options) - 1))
        options[k] = (options[k][0], st.sampled_from(_NEGATIVE))
    argv = [command]
    for flag, values in options:
        argv += [f"--{flag}", draw(values)]
    fmt = draw(st.sampled_from([None, "json", "csv", "pretty"]))
    if fmt is not None:
        argv += ["--format", fmt]
    if fault and fault.startswith("--"):
        argv.append(fault)
    return argv


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@settings(
    max_examples=800,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=_argv())
@example(argv=list(TOO_LONG_TABLE))
def test_exit_code_contract(argv):
    code, out = _run(argv)
    assert code in (0, 1, 2), out
    assert _run(argv) == (code, out)
    formats = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--format"]
    as_json = not formats or formats[-1] == "json"
    if code or as_json:
        assert out == canonical_json(json.loads(out))
    if code == 0 and as_json and argv[0].endswith("-spectrum"):
        obj = json.loads(out)
        entries = [(Fraction(e), int(m)) for e, m in obj["entries"]]
        assert ref_table(obj["unit"], obj["cutoff"], entries).to_json() == out


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=_argv(negative=True))
def test_a_negative_option_value_is_not_a_usage_error(argv):
    code, out = _run(argv)
    assert code in (0, 1, 2), out
    if code:
        assert json.loads(out)["error"]["type"] != "ArgumentError", argv
