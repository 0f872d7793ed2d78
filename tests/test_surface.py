"""The public surface: every name in ``liespec.__all__``, and every public
top-level function of src/, is used by the package itself, or is one of
the four exported instruments that README.md lists with the paper
statement it checks and the reason it stays; every field of a record class
is read by src/; no module under src/ asserts or calls
``object.__setattr__``; and every public door refuses with InputError an
argument that is not a sequence where it takes one, a string where it
takes a sequence of scales or of Gamma's parts, and a value of the wrong
kind where it takes a record: an embedding, a metric, a lattice, a group,
a table, a root system or a descriptor."""

import ast
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import liespec
from liespec import (
    GroupSpec, Lattice, NatRedMetric, beta_factors, biinvariant_spectrum,
    branch, build, casimir, congruent, containment_check, embedding_index,
    factor_lambda1, gamma_invariants, isolation_scan, killing_ratio,
    natred_spectrum, normal_quotient_spectrum, systole, table_distance,
    torus_lambda1, torus_search, torus_spectrum, validate_embedding,
    weight_diagram,
)
from liespec.branching import EmbeddingSpec
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.lattices import dual
from liespec.errors import InputError

ROOT = Path(__file__).resolve().parents[1]

# the public functions that nothing in src/ calls, each a README row that
# says why it stays; a name leaves this set when it gets a caller in src/
# or leaves the package, and none joins it unseen
INSTRUMENTS = {
    "containment_check",
    "normal_quotient_spectrum",
    "table_distance",
    "torus_lambda1",
}


def _used_names() -> set:
    """Names that a module of src/ other than an ``__init__.py`` loads, as a
    name or an attribute, outside the top-level definition of that name."""
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if isinstance(node.ctx, ast.Load) and name != own:
                    used.add(name)
    return used


def _instrument_rows() -> set:
    """Function names of README's rows "| `liespec.module.name(...)` |"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"^\| `liespec\.[\w.]+\.(\w+)\(", text, re.M))


def test_every_export_is_used_or_a_readme_instrument():
    # pytest.fail, not assert, so these hold under python -O too
    rows = _instrument_rows()
    if rows != INSTRUMENTS:
        pytest.fail(f"README's instrument rows are {sorted(rows)}")
    unused = set(liespec.__all__) - _used_names()
    if unused != INSTRUMENTS:
        pytest.fail(f"the exports that src/ never uses are {sorted(unused)}")


def _public_functions() -> set:
    """Names of the top-level functions of src/ not starting with ``_``."""
    return {
        top.name
        for path in (ROOT / "src").rglob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
    }


def test_every_public_function_is_used_or_a_readme_instrument():
    unused = _public_functions() - _used_names()
    if unused != INSTRUMENTS:
        pytest.fail(f"the public functions that src/ never calls are "
                    f"{sorted(unused)}")


def test_no_module_under_src_asserts():
    # certification cannot be turned off, and ``python -O`` strips every
    # assert statement; so this test fails by raising, not by asserting
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements under src/: {found}")


def test_groups_imports_no_branching_layer():
    # the normal quotient is the term catalogue's K-fixed rows, in natred,
    # so only branching and natred know the packed K-weight format; like
    # the assert scan, this test fails by raising
    path = ROOT / "src" / "liespec" / "groups.py"
    found = sorted(
        name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        # "from .branching import x", "from . import natred" and
        # "import liespec.branching" alike
        for name in [getattr(node, "module", None) or ""]
        + [alias.name for alias in node.names]
        if name.rpartition(".")[2] in ("branching", "natred")
    )
    if found:
        pytest.fail(f"liespec/groups.py imports {found}")


def test_no_module_under_src_calls_object_setattr():
    # a record sets its fields in one update of its __dict__ (frozen.py);
    # like the assert scan, this test fails by raising
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and getattr(node.func.value, "id", None) == "object"
    ]
    if found:
        pytest.fail(f"object.__setattr__ calls under src/: {found}")


def _attribute_loads() -> dict:
    """{attribute: the classes whose ``__init__`` loads it, with None for a
    load outside every ``__init__``} over src/."""
    loads = {}
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if getattr(fn, "name", None) == "__init__":
                    owner.update((id(n), cls.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and type(node.ctx) is ast.Load:
                loads.setdefault(node.attr, set()).add(owner.get(id(node)))
    return loads


def _record_fields() -> list:
    """(class, field) for each name in the ``_fields`` of a class of src/."""
    return [
        (cls.name, name)
        for path in (ROOT / "src").rglob("*.py")
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["_fields"]
        for name in ast.literal_eval(stmt.value)
    ]


def test_every_record_field_is_read_by_src():
    # the rule on public functions, for fields: each field is read as an
    # attribute by src/ outside its class's __init__, which only stores and
    # checks it; a field that only tests read is not kept
    loads = _attribute_loads()
    fields = _record_fields()
    unread = [
        f"{cls}.{name}"
        for cls, name in fields
        if not loads.get(name, set()) - {cls}
    ]
    if len(fields) < 20 or unread:
        pytest.fail(f"of {len(fields)} record fields, src/ never reads {unread}")


def test_every_door_refuses_an_argument_that_is_no_sequence():
    # a number where a sequence belongs is an InputError, the type the
    # command line reports with exit code 1, not a bare TypeError; so is a
    # string, bytes or a bytearray anywhere a sequence belongs, which
    # tuple() would split into one entry per character or byte value, a
    # mapping, which it would read as its keys, and a set, which it would
    # read in hash order (the command line's descriptors are arrays)
    a1 = build("A1")
    emb = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
    mapping, strings = {"1": "2"}, {"1", "2"}
    calls = {
        "a matrix is a sequence of rows": [
            lambda: Lattice(gram=5), lambda: Lattice(basis=5),
            lambda: Lattice(gram="12"),
            lambda: Lattice(gram={(3, 1): "a", (1, 3): "b"}),
            lambda: Lattice(basis=mapping), lambda: Lattice(gram=strings),
            lambda: EmbeddingSpec(a1, [a1], mapping),
            lambda: EmbeddingSpec(a1, [a1], {(2,)}),
        ],
        "a matrix row is a sequence": [
            lambda: Lattice(gram=[1]), lambda: Lattice(gram=[b"1"]),
            lambda: Lattice(basis=[b"\x02"]),
            lambda: Lattice(gram=[mapping]), lambda: Lattice(basis=[strings]),
            lambda: EmbeddingSpec(a1, [a1], [mapping]),
            lambda: EmbeddingSpec(a1, [a1], [{"2"}]),
        ],
        "a weight is a sequence of coordinates": [
            lambda: casimir(a1, 5), lambda: branch(emb, 5),
            lambda: casimir(a1, {1: 2}), lambda: casimir(a1, {"1"}),
            lambda: branch(emb, mapping), lambda: branch(emb, {(1, 0)}),
        ],
        "factors are a sequence": [
            lambda: GroupSpec(a1), lambda: GroupSpec("A1"),
            lambda: GroupSpec({a1: a1}), lambda: GroupSpec({a1}),
            lambda: EmbeddingSpec(a1, a1, ()),
            lambda: EmbeddingSpec(a1, "A1", ()),
            lambda: EmbeddingSpec(a1, {a1: 1}, [[1]]),
            lambda: EmbeddingSpec(a1, {a1}, [[1]]),
        ],
        "a coweight is a sequence": [
            lambda: GroupSpec([a1], gamma=[[1]]),
            lambda: GroupSpec([a1], gamma=[["1"]]),
            lambda: GroupSpec([a1], gamma=[[{"1/2": 1}]]),
            lambda: GroupSpec([a1], gamma=[[{"1/2"}]]),
        ],
        "a central element is a sequence": [
            lambda: GroupSpec([a1], gamma=[5]),
            lambda: GroupSpec([a1], gamma=["1"]),
            lambda: GroupSpec([a1], gamma=[{("1/2",): 1}]),
            lambda: GroupSpec([a1], gamma=({("1/2",)},)),
        ],
        "gamma is a sequence": [
            lambda: GroupSpec([a1], gamma=5), lambda: GroupSpec([a1], gamma="1"),
            lambda: GroupSpec([a1], gamma={(("1/2",),): 1}),
            lambda: GroupSpec([a1], gamma={(("1/2",),)}),
        ],
        "scales are a sequence": [
            lambda: GroupSpec([a1], scales=5),
            lambda: GroupSpec([a1], scales="2"),
            lambda: GroupSpec([a1], scales={"2": 1}),
            lambda: GroupSpec([a1], scales={"2"}),
            lambda: GroupSpec([a1, build("A2")], scales={"1", "2"}),
        ],
        "fiber scales are a sequence": [
            lambda: NatRedMetric(emb, 1, 5),
            lambda: NatRedMetric(emb, 3, "12"),
            lambda: NatRedMetric(emb, 3, b"12"),
            lambda: NatRedMetric(emb, 3, {"1": "2", "2": "1"}),
            lambda: NatRedMetric(emb, 3, {"1", "2"}),
        ],
        "values is a sequence of rationals": [
            lambda: torus_search(5, 2, 1, 1),
            lambda: torus_search({1: 2, 2: 1}, 1, "1/2", "1/2"),
            lambda: torus_search({1, 2}, 1, "1/2", "1/2"),
        ],
    }
    for message, doors in calls.items():
        for door in doors:
            with pytest.raises(InputError, match=f"^{message}, not "):
                door()
    # any other iterable is still read where one was read before
    assert Lattice(gram=(range(1, 2),)).gram == ((1,),)
    assert GroupSpec(iter([a1]), scales=iter(["2"])).scales == (2,)
    assert NatRedMetric(emb, 3, (x for x in (1, 2))).fiber_scales == (1, 2)
    assert NatRedMetric(emb, 3, ["1", "2"]).fiber_scales == (1, 2)
    assert GroupSpec([a1], gamma=(iter([("1/2",)]),)).gamma == (((F(1, 2),),),)
    assert EmbeddingSpec(a1, (a1,), (range(1, 2),)).restriction == ((1,),)
    assert casimir(a1, range(2, 3)) == 1
    assert len(torus_search(range(1, 3), 1, "1/2", "1/2")) == 2


# the wrong-kind values of the door probe: numbers, strings, bytes,
# sequences, a mapping, None and a plain object
WRONG_KINDS = (
    None, 1.5, "x", [1], {}, object(), True, F(1, 2), (1, 2), [[1, 2]],
    "1,2", b"1",
)


def test_every_door_refuses_a_record_of_the_wrong_kind():
    # a door that takes a record refuses anything else with an InputError
    # that names the record it wants, through the one helper next to
    # rational.sequence, where each leaked a bare AttributeError or
    # TypeError; a root system is checked by check_root_system, which every
    # weight door reaches through check_weight, and a descriptor is refused
    # the way ``required`` refuses it
    lat = Lattice(gram=[[1, 0], [0, 2]])
    table = torus_spectrum(lat, 3)
    doors = {
        "an embedding must be an EmbeddingSpec": [
            lambda x: branch(x, (1, 0)),
            validate_embedding,
            killing_ratio,
            embedding_index,
            lambda x: normal_quotient_spectrum(x, 1, 2),
            lambda x: NatRedMetric(x, 1, ()),
        ],
        "a metric must be a NatRedMetric": [
            lambda x: natred_spectrum(x, 1),
            lambda x: containment_check(x, 0, 1),
            beta_factors,
            lambda x: isolation_scan(x, "1/10", 1, 1),
        ],
        "a lattice must be a Lattice": [
            lambda x: torus_spectrum(x, 3),
            torus_lambda1,
            systole,
            dual,
            lambda x: congruent(lat, x),
            lambda x: congruent(x, lat),
        ],
        "a group must be a GroupSpec": [
            lambda x: biinvariant_spectrum(x, 1),
        ],
        "a subject must be a GroupSpec or a Lattice": [gamma_invariants],
        "a table must be a SpectrumTable": [
            lambda x: table_distance(x, table),
            lambda x: table_distance(table, x),
        ],
        "a root system comes from build()": [
            lambda x: casimir(x, (1, 0)),
            lambda x: weight_diagram(x, (1,)),
            lambda x: factor_lambda1(x, 1),
        ],
        "descriptor must be an object": [
            EmbeddingSpec.from_json_dict,
            Lattice.from_json_dict,
        ],
    }
    for message, calls in doors.items():
        for door in calls:
            for value in WRONG_KINDS:
                if value == {} and message.startswith("descriptor"):
                    # an object, so a descriptor: it lacks its keys
                    with pytest.raises(InputError):
                        door(value)
                    continue
                with pytest.raises(InputError) as info:
                    door(value)
                if str(info.value) != f"{message}, not {value!r}":
                    pytest.fail(f"{value!r}: {info.value}")
