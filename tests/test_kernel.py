"""The packed Brauer-Klimyk kernel of ``liespec.branching``: its
branchings against oracles that share no code with it, and the guard that
keeps every packed coordinate inside its field, in process and under
``python -O``."""

import json
import os
import subprocess
import sys

import pytest

from liespec import branching
from liespec.branching import EmbeddingSpec, _branched, branch
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.errors import MalformedEmbeddingError, UnsupportedDimensionError
from liespec.rootdata import build

from helpers import kostant_branch, principal_a1_row, ref_branch

LIMIT = 1 << (branching._WIDTH - 2)


def _embeddings() -> list:
    """A fresh copy of each builtin embedding, and the principal A1 in G2."""
    g2 = build("G2")
    return [
        EmbeddingSpec(e.ambient, e.factors, e.restriction)
        for e in BUILTIN_EMBEDDINGS.values()
    ] + [EmbeddingSpec(g2, (build("A1"),), (principal_a1_row(g2),))]


def test_kernel_branchings_match_the_oracles_under_a_budget():
    # every packed branching of the walk up to Casimir 16, made by the
    # recursion past 0 and the fundamentals, against the Kostant and
    # Racah-Speiser oracle, and up to Casimir 12 against the Fraction peel
    # too; a weight with a zero coordinate puts its sums next to a wall
    for emb in _embeddings():
        rs = emb.ambient
        rows = _branched(emb, 16)
        assert sum(0 in lam for lam, _, _, _ in rows) >= 15
        for lam, num, _, packed in rows:
            res = branch(emb, lam)
            assert res.terms == kostant_branch(emb, lam), lam
            if num <= 12 * rs.casimir_den:
                assert res == ref_branch(emb, lam), lam
            # int order is label order, and the multiplicities go along
            assert list(packed) == sorted(packed)
            assert list(packed.values()) == [m for _, m in res.terms]
        assert emb._k.walls  # some sums met a wall


_GUARD_SCRIPT = """
import json
from liespec import branching
from liespec.branching import EmbeddingSpec, branch
from liespec.catalog import BUILTIN_EMBEDDINGS
from liespec.rootdata import build

limit = 1 << (branching._WIDTH - 2)
a1 = build("A1")
so4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
calls = [
    lambda: branch(EmbeddingSpec(a1, (a1,), ((limit,),)), (1,)),
    lambda: branch(EmbeddingSpec(a1, (a1,), ((limit - 1,),)), (1,)),
    lambda: branching._result(so4, (1, 0), {limit: 1}),
    lambda: branching._result(so4, (1, 0), {limit << branching._WIDTH: 1}),
    lambda: branching._result(so4, (1, 0), {limit - 1: 1}),
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

_GUARDED = [
    "UnsupportedDimensionError", "MalformedEmbeddingError",
    "UnsupportedDimensionError", "UnsupportedDimensionError",
    "MalformedEmbeddingError",
]


def test_the_field_guard_refuses_a_coordinate_at_its_limit():
    # V_1 of A1 restricts to the weights +-n under the restriction (n): at
    # n = 2^(W-2) the peel refuses a weight before it packs it, and one
    # below it packs and is refused as malformed, since +-n is V_n -
    # V_(n-2); a K-type at the limit, in the first or the second factor's
    # field, is refused by the one mask test of the branching's checks
    a1 = build("A1")
    with pytest.raises(UnsupportedDimensionError, match=r"2\*\*30 or more"):
        branch(EmbeddingSpec(a1, (a1,), ((LIMIT,),)), (1,))
    with pytest.raises(UnsupportedDimensionError):
        branch(EmbeddingSpec(a1, (a1,), ((-LIMIT,),)), (1,))
    with pytest.raises(MalformedEmbeddingError):
        branch(EmbeddingSpec(a1, (a1,), ((LIMIT - 1,),)), (1,))
    so4 = BUILTIN_EMBEDDINGS["a1xa1-in-b2"]
    for key in (LIMIT, LIMIT << branching._WIDTH):
        with pytest.raises(UnsupportedDimensionError):
            branching._result(so4, (1, 0), {key: 1})
    with pytest.raises(MalformedEmbeddingError, match="lost dimensions"):
        branching._result(so4, (1, 0), {LIMIT - 1: 1})


def test_the_field_guard_holds_under_optimize():
    # the guard is an explicit raise, not an assert
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    if result != {"debug": False, "raised": _GUARDED}:
        pytest.fail(f"under python -O: {result}")
