"""Regenerate the benchmark's torus inputs and reference digests.

    python3 perfbench/make_refs.py

Writes ``torus_bases.json``, the 200 criterion-01 bases drawn exactly as
``tests/test_acceptance.py`` draws them, and ``refs.json``, the sha256 of
the canonical output of every operation any seed can produce.  Before a
digest is written, each torus table is checked against the independent
numpy box oracle in ``tests/helpers.py``, and the E8 root lattice against
its theta series r(2n) = 240 sigma_3(n).  The Lie digests are the outputs
of the library as it stands, so run this only on a commit whose outputs
are known to be right; a later run that changes a digest is a change of
output bytes.
"""

import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from worker import prepare, run_ops  # noqa: E402


def _criterion_01_bases():
    from helpers import random_rational_basis

    rng = random.Random(workloads.CRITERION_01_SEED)
    bases = []
    for _ in range(workloads.CRITERION_01_COUNT):
        m = rng.randint(1, 4)
        basis = random_rational_basis(rng, m)
        bases.append([[str(x) for x in row] for row in basis])
    return bases


def _torus_refs(bases):
    from helpers import box_oracle_spectrum
    from liespec import Lattice

    cutoff = Fraction(workloads.TORUS_CUTOFF)
    refs = {}
    for i, basis in enumerate(bases):
        op = {"basis": basis, "cutoff": workloads.TORUS_CUTOFF}
        call, render = prepare("torus-batch", op)
        table, lam = result = call()
        lat = Lattice.from_basis([[Fraction(x) for x in row] for row in basis])
        oracle = box_oracle_spectrum(lat, cutoff)
        if dict(table.entries) != oracle:
            raise SystemExit(f"lattice {i}: table differs from the box oracle")
        positive = [v for v in oracle if v > 0]
        if lam <= 0 or (positive and min(positive) != lam):
            raise SystemExit(f"lattice {i}: lambda1 disagrees with the oracle")
        refs[str(i)] = _digest(*render(result))

    e8 = {
        "lattice": workloads.E8_LATTICE_INDEX,
        "e8_signs": [1] * 8,
        "cutoff": workloads.E8_LATTICE_CUTOFF,
    }
    call, render = prepare("torus-batch", e8)
    result = call()
    top = int(Fraction(workloads.E8_LATTICE_CUTOFF)) // 2
    theta = {Fraction(0): 1}
    for n in range(1, top + 1):
        theta[Fraction(2 * n)] = 240 * sum(
            d**3 for d in range(1, n + 1) if n % d == 0
        )
    if dict(result[0].entries) != theta:
        raise SystemExit("E8 lattice table differs from its theta series")
    refs[str(workloads.E8_LATTICE_INDEX)] = _digest(*render(result))
    return refs


def _digest(text, complete):
    import hashlib

    if complete is False:
        raise SystemExit("reference table is not complete")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lie_refs(workload, count):
    refs = {}
    for seed in range(count):
        ops = workloads.make_ops(workload, seed)[:1]
        (row,), _ = run_ops(workload, ops)
        if row["error"] or row["complete"] is False:
            raise SystemExit(f"{workload} seed {seed}: {row}")
        refs[workloads.ref_key(workload, ops[0])] = row["digest"]
        print(f"{workload} {seed + 1}/{count}", file=sys.stderr, flush=True)
    return refs


def main():
    os.environ.pop("LIESPEC_CACHE_DIR", None)
    bases = _criterion_01_bases()
    with open(workloads.BASES_FILE, "w", encoding="utf-8") as fh:
        json.dump(bases, fh, separators=(",", ":"))
        fh.write("\n")
    scales = len(workloads.SCALES)
    refs = {
        "torus-batch": _torus_refs(bases),
        "natred-cli": _lie_refs("natred-cli", scales),
        "scan-b2": _lie_refs("scan-b2", scales),
        "group-e8": _lie_refs("group-e8", scales),
    }
    with open(workloads.REFS_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
