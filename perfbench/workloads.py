"""Workload inputs, made from a seed.

Shared by ``run.py`` (which sends them to the measured worker) and
``make_refs.py`` (which computes their reference digests).  Imports
nothing from liespec, so the ``run.py`` process never loads the library.

Every seed gives the same amount of work, so runs with different seeds
spread only by machine noise:

* ``torus-batch`` always holds the 200 criterion-01 lattices plus the E8
  root lattice.  The seed flips the sign of each basis vector and shuffles
  the order of the lattices.  A sign flip is a change of basis, so the
  tables are the same for every seed, and the enumeration visits the same
  number of nodes.
* The Lie workloads draw a scale c.  ``natred-cli`` and ``scan-b2`` use the
  metric t = c, t_i = (c/2, c/3) at cutoffs 20/c and 6/c; ``group-e8``
  uses the bi-invariant metric of scale c at cutoff 10/c.  Scaling a metric
  by c divides every eigenvalue by c, so the weights, branchings, terms
  and table sizes are the same for every seed; only the rationals differ.
  Varying t_i instead would change how many terms fall under the cutoff,
  and with it the table sizes and the work.

The seed spaces are finite, so ``refs.json`` holds a reference digest for
every input any seed can produce.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASES_FILE = HERE / "torus_bases.json"
REFS_FILE = HERE / "refs.json"

WORKLOADS = ("torus-batch", "natred-cli", "scan-b2", "group-e8")

CRITERION_01_SEED = 20260816
CRITERION_01_COUNT = 200
TORUS_CUTOFF = "12"
E8_LATTICE_CUTOFF = "6"
E8_LATTICE_INDEX = CRITERION_01_COUNT

NATRED_CUTOFF = 20
NATRED_HITS = 20
SCAN_RADIUS = "1/10"
SCAN_STEPS = 5
SCAN_CUTOFF = 6
E8_CUTOFF = 10

# Seed 0 gives scale 1: t = 1, t_i = (1/2, 1/3), and E8 at cutoff 10.
SCALES = ("1", "2", "1/2", "3", "3/2", "2/3", "1/3", "5/2", "4/3", "3/4")


def scale(seed: int) -> Fraction:
    return Fraction(SCALES[seed % len(SCALES)])


def natred_metric_json(c: Fraction) -> str:
    return json.dumps(
        {
            "group": "B2",
            "embedding": "a1xa1-in-b2",
            "t": str(c),
            "t_i": [str(c / 2), str(c / 3)],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def load_bases() -> list:
    with open(BASES_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def load_refs() -> dict:
    with open(REFS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _flip_columns(basis, signs):
    """Multiply column k (the k-th generator) by signs[k]."""
    return [
        [str(Fraction(x) * s) for x, s in zip(row, signs)] for row in basis
    ]


def ref_key(workload: str, op: dict) -> str:
    """Key of an operation's digest in refs.json."""
    if workload == "torus-batch":
        return str(op["lattice"])
    return op["scale"]


def make_ops(workload: str, seed: int) -> list:
    """The operations one repetition of ``workload`` runs for ``seed``."""
    if workload == "torus-batch":
        rng = random.Random(seed)
        bases = load_bases()
        order = list(range(len(bases)))
        rng.shuffle(order)
        ops = []
        for i in order:
            signs = [rng.choice((1, -1)) for _ in bases[i]]
            ops.append(
                {
                    "lattice": i,
                    "basis": _flip_columns(bases[i], signs),
                    "cutoff": TORUS_CUTOFF,
                }
            )
        ops.append(
            {
                "lattice": E8_LATTICE_INDEX,
                "e8_signs": [rng.choice((1, -1)) for _ in range(8)],
                "cutoff": E8_LATTICE_CUTOFF,
            }
        )
        return ops
    c = scale(seed)
    if workload == "natred-cli":
        argv = [
            "natred-spectrum",
            "--metric",
            natred_metric_json(c),
            "--cutoff",
            str(NATRED_CUTOFF / c),
        ]
        return [{"scale": str(c), "argv": argv}] * (1 + NATRED_HITS)
    if workload == "scan-b2":
        return [
            {
                "scale": str(c),
                "metric": natred_metric_json(c),
                "radius": SCAN_RADIUS,
                "steps": SCAN_STEPS,
                "cutoff": str(SCAN_CUTOFF / c),
            }
        ]
    if workload == "group-e8":
        return [{"scale": str(c), "cutoff": str(E8_CUTOFF / c)}]
    raise ValueError(f"unknown workload {workload!r}")
