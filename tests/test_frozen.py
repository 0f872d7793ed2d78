"""The immutable record classes and a cold import.

Every public class is an immutable record: assigning or deleting an
attribute raises AttributeError, the constructor takes exactly its
fields, value classes compare and hash by their fields and identity
classes by identity, and ``repr`` is pinned byte for byte.  A fresh
interpreter checks that ``import liespec, liespec.cli`` loads neither
``dataclasses``, ``inspect`` nor ``csv`` and builds no root system, that
``import liespec`` loads neither ``json`` nor ``hashlib`` and
``liespec.cli`` no ``hashlib`` until a job reads the disk cache, and that
resolving a builtin builds that builtin alone, once.
"""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from liespec.branching import BranchingResult, EmbeddingSpec, branch
from liespec.catalog import resolve
from liespec.errors import InputError
from liespec.groups import GroupSpec
from liespec.isolation import GammaVector, gamma_invariants
from liespec.lattices import Lattice, torus_spectrum
from liespec.natred import NatRedMetric
from liespec.rootdata import RootSystemData, build
from liespec.spectrum import SpectrumTable

SRC = Path(__file__).resolve().parents[1] / "src"


def _std():
    return resolve(EmbeddingSpec, "a1-in-a2-standard")


_STD_REPR = (
    "EmbeddingSpec(ambient=RootSystemData(A2), factors=(RootSystemData(A1),),"
    " restriction=((Fraction(1, 1), Fraction(1, 1)),),"
    " name='a1-in-a2-standard')"
)

# class, instance maker, constructor parameters in order, compares by value,
# repr.  A Lattice's dim and a NatRedMetric's group are read off its
# matrix and its embedding, so neither is a parameter.
CASES = [
    (
        RootSystemData,
        lambda: build("A2"),
        (
            "family", "rank", "cartan", "pos_roots_fund", "highest_root",
            "coroots", "weyl_den", "form", "form_den", "casimir_den",
            "dual_coxeter", "dim_g", "minus_w0",
        ),
        False,
        "RootSystemData(A2)",
    ),
    (
        EmbeddingSpec,
        _std,
        ("ambient", "factors", "restriction", "name"),
        False,
        _STD_REPR,
    ),
    (
        BranchingResult,
        lambda: branch(_std(), (1, 0)),
        ("source", "terms"),
        True,
        "BranchingResult(source=(1, 0), terms=((((0,),), 1), (((1,),), 1)))",
    ),
    (
        GroupSpec,
        lambda: resolve(GroupSpec, "so3"),
        ("factors", "gamma", "scales"),
        False,
        "GroupSpec(factors=(RootSystemData(A1),), gamma=(((Fraction(1, 2),),),),"
        " scales=(Fraction(1, 1),))",
    ),
    (
        SpectrumTable,
        lambda: torus_spectrum(resolve(Lattice, "hexagonal"), 3),
        ("unit", "cutoff", "scale", "values", "mults"),
        True,
        "SpectrumTable(unit='four-pi-squared', cutoff=Fraction(3, 1), scale=3,"
        " values=(0, 2, 6, 8), mults=(1, 6, 6, 6))",
    ),
    (
        NatRedMetric,
        lambda: NatRedMetric(_std(), 1, (F(1, 2),)),
        ("emb", "base_scale", "fiber_scales"),
        False,
        f"NatRedMetric(emb={_STD_REPR},"
        " base_scale=Fraction(1, 1), fiber_scales=(Fraction(1, 2),))",
    ),
    (
        GammaVector,
        lambda: gamma_invariants(resolve(GroupSpec, "su3")),
        ("kind", "dim", "entries"),
        True,
        "GammaVector(kind='group', dim=1, entries=(Fraction(4, 9),))",
    ),
    (
        Lattice,
        lambda: resolve(Lattice, "hexagonal"),
        ("gram", "basis"),
        True,
        "Lattice(dim=2, gram=((Fraction(2, 1), Fraction(1, 1)),"
        " (Fraction(1, 1), Fraction(2, 1))), basis=None)",
    ),
]


@pytest.mark.parametrize(
    "cls, make, params, by_value, pin", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_class(cls, make, params, by_value, pin):
    obj = make()
    assert type(obj) is cls
    for name in (*params, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in params:
        with pytest.raises(AttributeError):
            delattr(obj, name)

    values = [getattr(obj, name) for name in params]
    # no instance without its data: a Lattice takes a gram matrix or a
    # basis, each optional alone, and refuses neither as outside input
    with pytest.raises(InputError if cls is Lattice else TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, bogus=None)
    twin = cls(*values)
    assert [getattr(twin, name) for name in params] == values
    keyword = cls(**dict(zip(params, values)))
    assert [getattr(keyword, name) for name in params] == values
    if by_value:
        assert twin == obj and hash(twin) == hash(obj)
        assert obj.__eq__(object()) is NotImplemented and obj != object()
        # a cached property (SpectrumTable.entries, Lattice._form,
        # Lattice._dual_form and Lattice._dual_minimum) writes past the
        # frozen __setattr__ and is not a field
        for attr in ("entries", "_form", "_dual_form", "_dual_minimum"):
            if hasattr(cls, attr):
                getattr(obj, attr)
                assert attr in vars(obj) and twin == obj
    else:
        assert twin != obj and obj == obj
        assert hash(obj) == object.__hash__(obj)

    assert repr(obj) == pin


def test_record_unequal_to_other_record_class():
    lattice = resolve(Lattice, "hexagonal")
    table = torus_spectrum(lattice, 3)
    assert table.__eq__(lattice) is NotImplemented and table != lattice


def _fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LIESPEC_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cold_import_loads_no_dataclasses_and_builds_nothing():
    out = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import liespec, liespec.cli\n"
        "from liespec import rootdata\n"
        "gained = set(sys.modules) - before\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & gained),"
        " rootdata._build.cache_info().currsize)\n"
    )
    assert out == "[] 0"


def test_cold_import_loads_json_and_hashlib_only_where_they_are_used(
    tmp_path,
):
    # the same natred-spectrum job without the disk cache and then with it:
    # only the cached one hashes its key
    metric = (
        '{"group":"A2","embedding":"a1-in-a2-standard","t":"1","t_i":["1/2"]}'
    )
    out = _fresh(
        "import contextlib, io, os, sys\n"
        "before = set(sys.modules)\n"
        "import liespec\n"
        "lib = sorted({'json', 'hashlib'} & (set(sys.modules) - before))\n"
        "import liespec.cli\n"
        "cli = sorted({'hashlib'} & (set(sys.modules) - before))\n"
        "jobs = []\n"
        "for cache in (None, %r):\n"
        "    if cache:\n"
        "        os.environ['LIESPEC_CACHE_DIR'] = cache\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = liespec.cli.main(['natred-spectrum', '--metric',"
        " %r, '--cutoff', '1'])\n"
        "    jobs.append((code, 'hashlib' in sys.modules))\n"
        "print(lib, cli, jobs)\n" % (str(tmp_path / "cache"), metric)
    )
    assert out == "[] [] [(0, False), (0, True)]"


def test_builtins_built_on_first_lookup_once():
    out = _fresh(
        "from liespec.branching import EmbeddingSpec\n"
        "from liespec.catalog import BUILTIN_EMBEDDINGS, resolve\n"
        "from liespec.rootdata import _build\n"
        "made, init = [], EmbeddingSpec.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made.append(kwargs['name'])\n"
        "    init(self, *args, **kwargs)\n"
        "EmbeddingSpec.__init__ = counting\n"
        "name = 'a1xa1-in-b2'\n"
        "emb = resolve(EmbeddingSpec, name)\n"
        "same = emb is resolve(EmbeddingSpec, name) is BUILTIN_EMBEDDINGS[name]\n"
        "listed = name in BUILTIN_EMBEDDINGS and len(list(BUILTIN_EMBEDDINGS))\n"
        "print(made, _build.cache_info().currsize, same, listed)\n"
    )
    # A1 and B2 are built, and neither A2 nor any other embedding
    assert out == "['a1xa1-in-b2'] 2 True 4"


def test_builtin_first_lookups_from_threads_share_one_object():
    out = _fresh(
        "import sys, threading\n"
        "from liespec import catalog\n"
        "sys.setswitchinterval(1e-6)\n"
        "kinds = catalog._BUILTINS.values()\n"
        "got, start = [], threading.Barrier(8)\n"
        "def lookup():\n"
        "    start.wait(30)\n"
        "    got.append([b[name] for b in kinds for name in b])\n"
        "threads = [threading.Thread(target=lookup) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "last = list(map(id, [b[name] for b in kinds for name in b]))\n"
        "print(len(got), len(last),"
        " all(list(map(id, objs)) == last for objs in got),"
        " any(t.is_alive() for t in threads))\n"
    )
    # every thread got the objects that every later lookup returns
    assert out == "8 11 True False"
