"""The recorded mutants of tests/mutants.py still name code that exists:
each old text occurs exactly once in its module, and each killing test is
a test that pytest collects, so deleting or renaming one fails here and
names its mutant."""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


def test_every_mutant_names_its_code_once():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 10
    for m in MUTANTS:
        text = (ROOT / "src" / "liespec" / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.kills, m.name


def test_every_killing_test_is_collected():
    # pytest's own list of the killing tests' files, so a test that is
    # deleted, renamed or no longer collected leaves its mutant unkillable;
    # pytest.fail, not assert, so this holds under python -O too
    files = sorted({
        node.partition("::")[0] for m in MUTANTS for node in m.kills
    })
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"collecting {files} failed:\n{proc.stdout[-2000:]}")
    # a parametrized test is collected once per parameter, as node[id]
    collected = {line.partition("[")[0] for line in proc.stdout.splitlines()}
    lost = [
        f"{m.name}: {node}"
        for m in MUTANTS for node in m.kills if node not in collected
    ]
    if lost:
        pytest.fail("killing tests not collected: " + "; ".join(lost))
