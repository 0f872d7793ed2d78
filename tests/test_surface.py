"""The public surface: every name in ``liespec.__all__``, and every public
top-level function of src/, is used by the package itself, or is one of
the exported instruments that README.md lists with the paper statement it
checks."""

import ast
import re
from pathlib import Path

import pytest

import liespec

ROOT = Path(__file__).resolve().parents[1]


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
    unused = set(liespec.__all__) - _used_names()
    assert sorted(unused - _instrument_rows()) == []


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
    assert sorted(unused - _instrument_rows()) == []


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
