"""Hypothesis settings profiles of the suite.

``fuzz-10k`` is the fuzzer's long run: 10^4 derandomized cases of each
property in tests/test_fuzz.py, which the default profile runs at 800 and
150 cases.

    python -m pytest -q tests/test_fuzz.py --hypothesis-profile fuzz-10k
"""

from hypothesis import settings

settings.register_profile("fuzz-10k", max_examples=10_000, derandomize=True)
