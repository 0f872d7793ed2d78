"""The recorded mutants of tests/mutants.py still name code that exists:
each old text occurs exactly once in its module, and each killing test is
a test function of its file."""

import re

from mutants import MUTANTS, ROOT


def test_every_mutant_names_its_code_once():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 10
    for m in MUTANTS:
        text = (ROOT / "src" / "liespec" / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.kills, m.name
        for node in m.kills:
            path, _, test = node.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {test}\(", source, re.M), node
