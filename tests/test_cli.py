import builtins
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import liespec
from liespec.catalog import BUILTIN_LATTICES
from liespec.cli import main
from liespec.lattices import Lattice, torus_spectrum
from liespec.spectrum import canonical_json

METRIC = '{"group": "A2", "embedding": "a1-in-a2-standard", "t": "1", "t_i": ["1/2"]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_torus_spectrum_builtin(capsys):
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", "identity2", "--cutoff", "8"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["unit"] == "four-pi-squared"
    assert obj["entries"] == [
        ["0", "1"], ["1", "4"], ["2", "4"],
        ["4", "4"], ["5", "8"], ["8", "4"],
    ]
    # canonical bytes: sorted keys, compact separators, trailing newline
    assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_group_spectrum_builtin(capsys):
    code, out = run_cli(
        capsys, "group-spectrum", "--spec", "su2", "--cutoff", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [["0", "1"], ["3/8", "4"], ["1", "9"]]
    assert "3/8" in out and "0.375" not in out


def test_natred_spectrum_inline_metric(capsys):
    code, out = run_cli(
        capsys, "natred-spectrum", "--metric", METRIC, "--cutoff", "25/36"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [["0", "1"], ["4/9", "6"], ["25/36", "12"]]
    assert obj["complete"] is True


def test_branch_report(capsys):
    code, out = run_cli(
        capsys, "branch", "--embedding", "a1-in-a2-standard",
        "--weight", "1,1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["weight"] == [1, 1]
    terms = {
        tuple(tuple(p) for p in t["factors"]): t["multiplicity"]
        for t in obj["terms"]
    }
    assert terms == {((0,),): 1, ((1,),): 2, ((2,),): 1}


def test_gamma_for_lattice_and_group(capsys):
    code, out = run_cli(capsys, "gamma", "--gram", "hexagonal")
    assert code == 0
    assert json.loads(out)["entries"] == ["2/3", "2/3", "2/3"]
    code, out = run_cli(capsys, "gamma", "--spec", "su3")
    assert code == 0
    assert json.loads(out)["entries"] == ["4/9"]
    # --gram and --spec are one required choice: naming neither or both is
    # a usage error
    for argv in (("gamma",), ("gamma", "--gram", "hexagonal", "--spec", "su3")):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ArgumentError"


def test_scan_report(capsys):
    code, out = run_cli(
        capsys, "scan", "--metric", METRIC, "--radius", "1/10",
        "--steps", "3", "--cutoff", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["isospectral_neighbors"] == []
    assert obj["grid"]["points"] == 9


def test_torus_search_report(capsys):
    code, out = run_cli(
        capsys, "torus-search", "--values", "1,2", "--dim", "2",
        "--lambda-min", "1/2", "--vol-min", "1/2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == len(obj["tori"]) > 0


def test_window_report(capsys):
    code, out = run_cli(
        capsys, "window", "--lambda1", "2", "--vol", "3", "--dim", "2",
        "--const", "1",
    )
    assert code == 0
    assert json.loads(out) == {"window": "1/36"}


def test_window_refuses_a_dimension_below_one(capsys):
    for dim in ("0", "-3"):
        code, err = _error(
            capsys,
            ("window", "--lambda1", "1", "--vol", "1", "--dim", dim,
             "--const", "1"),
        )
        assert code == 2, dim
        assert err == {
            "type": "DomainError", "message": "dimension must be positive",
        }, dim


def _too_long() -> dict:
    """The error object of an exact answer too long to write."""
    return {
        "type": "DomainError",
        "message": "exact answer too long to write: it has more digits than "
        f"the interpreter's {sys.get_int_max_str_digits()}-digit limit on "
        "int strings",
    }


def test_window_too_long_to_write_exits_two(capsys):
    # 1/10^k parses, but the exact window 10^(2k) has more digits than the
    # interpreter writes: a named domain error, not an internal one
    limit = sys.get_int_max_str_digits()
    code, err = _error(
        capsys,
        ("window", "--lambda1", "1/1" + "0" * (limit // 2 + 1), "--vol",
         "1", "--dim", "2", "--const", "1"),
    )
    assert code == 2
    assert err == _too_long()


# The dual of diag(10^2200, 10^2200 + 1) has its eigenvalues over a scale
# of 4,401 digits, past the interpreter's limit on int strings.
_BIG = "1" + "0" * 2200
TOO_LONG_TABLE = (
    "torus-spectrum", "--gram",
    json.dumps({"gram": [[_BIG, "0"], ["0", _BIG[:-1] + "1"]]}),
    "--cutoff", "3/" + _BIG,
)


def test_table_too_long_to_write_exits_two(tmp_path, capsys, monkeypatch):
    # every table writer refuses it with fmt's error, exit 2, with and
    # without the cache, whose writer refuses it too and keeps no entry
    # and no temporary file
    cache = tmp_path / "cache"
    for fmt in ("json", "csv", "pretty"):
        for cached in (False, True):
            if cached:
                monkeypatch.setenv("LIESPEC_CACHE_DIR", str(cache))
            code, out = run_cli(capsys, *TOO_LONG_TABLE, "--format", fmt)
            assert code == 2, (fmt, cached)
            assert json.loads(out) == {"error": _too_long()}
            assert out == canonical_json(json.loads(out))
            assert list(cache.glob("*")) == []
            monkeypatch.delenv("LIESPEC_CACHE_DIR", raising=False)


def test_table_at_the_int_string_limit_prints(tmp_path, capsys, monkeypatch):
    # the dual of the rank-1 lattice [[10^(limit - 1)]] has its eigenvalues
    # k^2 over a scale of exactly the limit's digits: it still prints, in
    # every format, and a cache hit prints the same bytes
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * (limit - 1)
    args = ("torus-spectrum", "--gram", json.dumps({"gram": [[big]]}),
            "--cutoff", "1/" + big)
    fresh = {}
    for fmt in ("json", "csv", "pretty"):
        code, fresh[fmt] = run_cli(capsys, *args, "--format", fmt)
        assert code == 0, fresh[fmt]
    entries = json.loads(fresh["json"])["entries"]
    assert entries == [["0", "1"], ["1/" + big, "2"]]
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    for fmt in ("json", "csv", "pretty", "json"):  # a miss, then hits
        assert run_cli(capsys, *args, "--format", fmt) == (0, fresh[fmt])
    assert len(list(tmp_path.iterdir())) == 1


def test_validate_embedding_report(capsys):
    code, out = run_cli(
        capsys, "validate-embedding", "--embedding", "a1xa1-in-b2"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_missing_file_exits_one(capsys):
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", "/no/such/file.json",
        "--cutoff", "1",
    )
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "FileNotFoundError"


def test_bad_inline_json_exits_one(capsys):
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", '{"dim": 2', "--cutoff", "1"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "JSONDecodeError"


def test_over_long_json_integer_exits_one(capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer longer than the interpreter reads (5,001 digits at the default
    # limit); as a JSON string the same digits are "not a rational", and
    # both are input errors
    digits = "1" * (sys.get_int_max_str_digits() + 701)
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", '{"gram": [[%s]]}' % digits,
        "--cutoff", "1",
    )
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "InputError"
    assert err["message"].startswith("descriptor JSON does not parse: ")


def test_descriptor_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"gram": [["\xe9"]]}')
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", str(path), "--cutoff", "1"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


def test_descriptor_basis_and_gram_must_agree(capsys, monkeypatch):
    monkeypatch.delenv("LIESPEC_CACHE_DIR", raising=False)
    # Z^2's basis against the hexagonal Gram matrix: refused, not read as
    # either lattice
    conflict = '{"basis":[[1,0],[0,1]],"gram":[[2,1],[1,2]]}'
    for argv in (
        ("torus-spectrum", "--gram", conflict, "--cutoff", "2"),
        ("gamma", "--gram", conflict),
    ):
        code, err = _error(capsys, argv)
        assert code == 2, argv
        assert err == {
            "type": "DomainError",
            "message": "basis must be square with basis^T basis = gram",
        }, argv
    # a consistent pair, as to_json_dict writes it, reads as the basis alone
    basis = '{"basis":[["2","1"],["0","3/2"]]}'
    both = json.dumps(Lattice.from_json_dict(json.loads(basis)).to_json_dict())
    assert "gram" in json.loads(both)
    for argv in (("torus-spectrum", "--cutoff", "4"), ("gamma",)):
        seen = [run_cli(capsys, *argv, "--gram", g) for g in (basis, both)]
        assert seen[0] == seen[1] and seen[0][0] == 0, argv


def test_domain_error_exits_two(capsys):
    bad = '{"group": "A2", "embedding": "a1-in-a2-standard", "t": "1", "t_i": ["1"]}'
    code, out = run_cli(
        capsys, "natred-spectrum", "--metric", bad, "--cutoff", "1"
    )
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InadmissibleMetricError"
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", "identity2", "--cutoff", "-1"
    )
    assert code == 2
    assert json.loads(out)["error"]["message"] == "cutoff must be nonnegative"
    code, err = _error(
        capsys,
        ("scan", "--metric", METRIC, "--radius", "1/10", "--steps", "3",
         "--cutoff", "-1"),
    )
    assert (code, err) == (
        2, {"type": "DomainError", "message": "cutoff must be nonnegative"}
    )
    # a restriction row with no factor to restrict to is not dropped
    emb = '{"ambient": "A2", "factors": [], "restriction": [["1", "1"]]}'
    code, out = run_cli(capsys, "validate-embedding", "--embedding", emb)
    assert (code, json.loads(out)["error"]["type"]) == (2, "DomainError")


def test_usage_errors_exit_one(capsys):
    for argv in (
        ("torus-spectrum", "--gram", "identity2", "--cutoff", "3",
         "--threads", "2"),
        ("torus-spectrum", "--gram", "identity2"),
        # a flag is not a value, also where a value may start with "-"
        ("torus-spectrum", "--gram", "identity2", "--cutoff", "--format",
         "json"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""  # no usage text
        err = json.loads(captured.out)["error"]
        assert err["type"] == "ArgumentError"
        assert ("--threads" if "--threads" in argv else "--cutoff") in (
            err["message"]
        )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "torus-spectrum" in capsys.readouterr().out


# option values that start with "-" and a digit, which argparse alone
# reads as flags, with the exit code of each
NEGATIVE_VALUES = [
    (("torus-spectrum", "--gram", "identity2", "--cutoff", "-1/2"), 2),
    (("window", "--lambda1", "-1/2", "--vol", "1", "--dim", "2", "--const",
      "1"), 2),
    (("branch", "--embedding", "a1xa1-in-b2", "--weight", "-1,0"), 2),
    (("torus-search", "--values", "-1,2", "--dim", "2", "--lambda-min", "1",
      "--vol-min", "1"), 0),
]


@pytest.mark.parametrize(
    "argv, code", NEGATIVE_VALUES, ids=[a[0] for a, _ in NEGATIVE_VALUES]
)
def test_negative_option_value_is_read_as_a_value(capsys, argv, code):
    # each prints what its --option=value spelling prints
    i = next(i for i, a in enumerate(argv) if a[:2] in ("-1", "-2"))
    joined = (*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :])
    got, out = run_cli(capsys, *argv)
    assert (got, out) == run_cli(capsys, *joined)
    assert got == code
    if code:
        assert json.loads(out)["error"]["type"] == "DomainError"
    else:
        assert out == '{"count":0,"tori":[]}\n'


# Runs under python -O, with a killing_ratio that breaks horizontal
# positivity; prints what natred_spectrum raised and what cli.main returned.
_FAULT_SCRIPT = """
import contextlib, io, json
from fractions import Fraction
import liespec.natred as natred
from liespec.cli import main
from liespec.errors import CertificationError

natred.killing_ratio = lambda emb: tuple(Fraction(1, 100) for _ in emb.factors)
m = natred.NatRedMetric.from_json_dict(json.loads(METRIC))
try:
    natred.natred_spectrum(m, 1)
    raised = None
except CertificationError as exc:
    raised = type(exc).__name__
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(["natred-spectrum", "--metric", METRIC, "--cutoff", "1"])
print(json.dumps({"debug": __debug__, "raised": raised, "code": code,
                  "out": buf.getvalue()}))
"""


def _run_optimized(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("LIESPEC_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, check=True, text=True,
    )
    return json.loads(proc.stdout)


def test_certification_survives_optimize():
    result = _run_optimized(f"METRIC = {METRIC!r}\n" + _FAULT_SCRIPT)
    assert result["debug"] is False  # asserts really are stripped
    assert result["raised"] == "CertificationError"
    assert result["code"] == 2
    assert json.loads(result["out"])["error"]["type"] == "CertificationError"


# Runs under python -O, with the square completion that the kernel
# _norm_counts reads giving a common multiple L off by one, so the
# coefficients of its leaves x^T A x stop being exact quotients by it
# (A_11 = 1 becomes 1/2 on these forms).  systole reads the lattice's own
# cached form and torus-spectrum its dual's; lattice._reduced_form makes
# both completions with _squares.  Prints what systole raised, what
# cli.main returned and how often each path made a broken completion.
_KERNEL_FAULT_SCRIPT = """
import contextlib, io, json
from fractions import Fraction
import liespec.lattices.lattice as lattice
from liespec.cli import main
from liespec.errors import CertificationError

real = lattice._squares
calls = []

def broken(pivots, rows):
    calls.append(len(pivots))
    pivots, rows, weights, total = real(pivots, rows)
    return pivots, rows, weights, total + 1

lattice._squares = broken
one, zero = Fraction(1), Fraction(0)
try:
    lattice.systole(lattice.Lattice.from_gram(((one, zero), (zero, one))))
    raised = None
except CertificationError as exc:
    raised = type(exc).__name__
direct = len(calls)
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(["torus-spectrum", "--gram", "identity2", "--cutoff", "4"])
print(json.dumps({"debug": __debug__, "raised": raised, "code": code,
                  "out": buf.getvalue(), "direct": direct,
                  "cli": len(calls) - direct}))
"""


def test_kernel_certification_survives_optimize():
    result = _run_optimized(_KERNEL_FAULT_SCRIPT)
    assert result["debug"] is False
    assert result["direct"] == 1 and result["cli"] == 1
    assert result["raised"] == "CertificationError"
    assert result["code"] == 2
    assert json.loads(result["out"])["error"]["type"] == "CertificationError"


# Runs under python -O, with the square completion's entry ENTRY = (i, j)
# of the pivot rows off by one on every form of the Gram matrix GRAM and of
# its dual, so alpha = A_11 stays an exact quotient by L while a
# coefficient of beta or gamma does not.  Prints what systole raised, what
# cli.main returned for torus-spectrum, and alpha's remainder on each
# completion.
_LEVEL_TWO_FAULT_SCRIPT = """
import contextlib, io, json
from fractions import Fraction
import liespec.lattices.lattice as lattice
from liespec.cli import main
from liespec.errors import CertificationError

real = lattice._squares
alpha = []

def broken(pivots, rows):
    pivots, rows, weights, total = real(pivots, rows)
    rows = [list(row) for row in rows]
    i, j = ENTRY
    rows[i][j] += 1
    (p0, p1), (w0, w1) = pivots[:2], weights[:2]
    alpha.append((w1 * p1 * p1 + w0 * rows[0][1] ** 2) % total)
    return pivots, rows, weights, total

lattice._squares = broken
try:
    lattice.systole(lattice.Lattice.from_gram(
        [[Fraction(x) for x in row] for row in GRAM]))
    raised = None
except CertificationError as exc:
    raised = type(exc).__name__
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    gram = json.dumps({"gram": [[str(x) for x in row] for row in GRAM]})
    code = main(["torus-spectrum", "--gram", gram, "--cutoff", "4"])
print(json.dumps({"debug": __debug__, "raised": raised, "code": code,
                  "out": buf.getvalue(), "alpha": alpha}))
"""


def _level_two_fault(gram, entry):
    result = _run_optimized(
        f"GRAM = {gram!r}\nENTRY = {entry!r}\n" + _LEVEL_TWO_FAULT_SCRIPT
    )
    assert result["debug"] is False
    assert result["alpha"] == [0, 0]  # one completion per path, alpha exact
    assert result["raised"] == "CertificationError"
    assert result["code"] == 2
    assert json.loads(result["out"])["error"] == {
        "type": "CertificationError",
        "message": "x^T A x is not an integer",
    }


def test_level_two_certification_survives_optimize():
    # r_12 on A3: the per-call 2 A_12 or A_22 is no longer an integer
    _level_two_fault(((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 2))


def test_level_two_tail_certification_survives_optimize():
    # r_03 on A4: x_3 is a tail of the level-2 step, so B_0, G_1 or G_0,
    # taken once per choice of x_3, is no longer an integer
    a4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    _level_two_fault(a4, (0, 3))


# Runs under python -O: the first lattice's form is made with the real
# completion, then _squares gives L off by one, as above, for every form
# made after it.  congruent reads the first form with the values-only
# kernel and the second, a basis change of Z^2, with the kernel that also
# lists vectors.  Prints what congruent raised on the pair and what it
# returned on the first lattice against itself.
_VECTORS_FAULT_SCRIPT = """
import json
from fractions import Fraction
import liespec.lattices.lattice as lattice
from liespec.errors import CertificationError
from liespec.lattices.congruence import congruent

real = lattice._squares

def broken(pivots, rows):
    pivots, rows, weights, total = real(pivots, rows)
    return pivots, rows, weights, total + 1

one, two, zero = Fraction(1), Fraction(2), Fraction(0)
first = lattice.Lattice.from_gram(((one, zero), (zero, one)))
first._form
lattice._squares = broken
second = lattice.Lattice.from_gram(((two, one), (one, one)))
try:
    congruent(first, second)
    raised = None
except CertificationError as exc:
    raised = type(exc).__name__
print(json.dumps({"debug": __debug__, "raised": raised,
                  "itself": congruent(first, first)}))
"""


def test_vectors_kernel_certification_survives_optimize():
    result = _run_optimized(_VECTORS_FAULT_SCRIPT)
    assert result["debug"] is False
    assert result["raised"] == "CertificationError"
    assert result["itself"] is True


# Runs under python -O, with every elimination that has no augmented block
# (LLL's starting table among them) returning its first off-diagonal pivot
# entry off by one.  The dual of the form [[1, 5], [5, 26]] is [[26, -5],
# [-5, 1]], which LLL must swap; with the corrupted table the swap update
# (1 * 1 + 4^2) / 26 is no longer exact.  Prints what _lll_int raised on
# that dual and what cli.main returned for the lattice.
_SWAP_FAULT_SCRIPT = """
import contextlib, io, json
from liespec import linalg
from liespec.cli import main
from liespec.errors import CertificationError
from liespec.lattices.reduction import _lll_int

real = linalg.eliminate

def broken(a, aug=None):
    pivots, rows, right = real(a, aug)
    if aug is None and len(rows) > 1:
        rows[0][1] += 1
    return pivots, rows, right

linalg.eliminate = broken
try:
    a = [[26, -5], [-5, 1]]
    _lll_int(a, linalg.eliminate(a))
    raised = None
except CertificationError as exc:
    raised = type(exc).__name__
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    gram = '{"gram": [["1", "5"], ["5", "26"]]}'
    code = main(["torus-spectrum", "--gram", gram, "--cutoff", "4"])
print(json.dumps({"debug": __debug__, "raised": raised, "code": code,
                  "out": buf.getvalue()}))
"""


def test_lll_swap_certification_survives_optimize():
    result = _run_optimized(_SWAP_FAULT_SCRIPT)
    assert result["debug"] is False
    assert result["raised"] == "CertificationError"
    assert result["code"] == 2
    error = json.loads(result["out"])["error"]
    assert error == {
        "type": "CertificationError",
        "message": "inexact division in the LLL swap update",
    }


def test_csv_format(capsys):
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", "identity2", "--cutoff", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "eigenvalue,multiplicity", "0,1", "1,4", "2,4",
    ]


# one job per report subcommand; each report has a value that holds a
# comma or a quote
REPORTS = [
    ("branch", "--embedding", "a1-in-a2-standard", "--weight", "1,1"),
    ("gamma", "--gram", "hexagonal"),
    ("gamma", "--spec", "su3"),
    ("scan", "--metric", METRIC, "--radius", "1/10", "--steps", "3",
     "--cutoff", "2"),
    ("torus-search", "--values", "1,2", "--dim", "2", "--lambda-min", "1/2",
     "--vol-min", "1/2"),
    ("window", "--lambda1", "2", "--vol", "3", "--dim", "4", "--const", "5"),
    ("validate-embedding", "--embedding", "a1-in-a2-standard"),
]


@pytest.mark.parametrize(
    "argv", REPORTS, ids=[" ".join(argv[:2]) for argv in REPORTS]
)
def test_report_csv_is_key_value_rows(capsys, argv):
    # each row parses into a key and a value, and the value is the JSON of
    # that key's value in the JSON report
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    code, text = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(text)
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["key", "value"]
    assert all(len(row) == 2 for row in rows), rows
    assert [k for k, _ in rows] == sorted(report)
    assert {k: json.loads(v) for k, v in rows} == report


def test_pretty_format(capsys):
    code, out = run_cli(
        capsys, "group-spectrum", "--spec", "su2", "--cutoff", "1",
        "--format", "pretty",
    )
    assert code == 0
    assert "unit=raw" in out and "x9" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", "identity2", "--cutoff", "4",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    code, direct = run_cli(
        capsys, "torus-spectrum", "--gram", "identity2", "--cutoff", "4"
    )
    assert target.read_text() == direct


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    args = ("group-spectrum", "--spec", "su3", "--cutoff", "2")
    code, first = run_cli(capsys, *args)
    assert code == 0
    files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert len(files) == 1
    code, second = run_cli(capsys, *args)
    assert second == first
    monkeypatch.delenv("LIESPEC_CACHE_DIR")
    code, fresh = run_cli(capsys, *args)
    assert fresh == first
    # a write that fails is an I/O error, exit 1, and leaves neither an
    # entry nor its temporary file
    def refused(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refused)
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path / "full"))
    code, out = run_cli(capsys, *args)
    assert code == 1 and json.loads(out)["error"]["type"] == "OSError"
    assert os.listdir(tmp_path / "full") == []


def _with_table(entry_text, **fields):
    """The cache entry ``entry_text`` with these table fields replaced, in
    canonical JSON."""
    entry = json.loads(entry_text)
    entry["table"].update(fields)
    return canonical_json(entry)


def _plant_misses(capsys, args, entry, good, fresh, planted):
    """Each planted entry text is read as a miss: the job prints ``fresh``
    and the entry is rewritten as ``good``."""
    for text in planted:
        assert text != good
        entry.write_text(text)
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == fresh
        assert os.listdir(entry.parent) == [entry.name]
        assert entry.read_text() == good


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    args = ("torus-spectrum", "--gram", "hexagonal", "--cutoff", "7")
    code, fresh = run_cli(capsys, *args)
    assert code == 0
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    run_cli(capsys, *args)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    table = json.loads(good)["table"]
    # scale 3, values [0, 2, 6, 8, 14, 18], mults [1, 6, 6, 6, 12, 6]
    values, mults = table["values"], table["mults"]
    planted = [
        good[: len(good) // 2],  # a half-written entry
        # entries that parse, but not as this program writes them
        _with_table(good, complete=True),  # a field it does not write
        _with_table(good, mults=[2.5] + mults[1:]),
        _with_table(good, mults=[1.0] + mults[1:]),
        _with_table(good, mults=[True] + mults[1:]),
        _with_table(good, values=values[:1] + [2.0] + values[2:]),
        _with_table(good, values=values[:1] + ["2"] + values[2:]),
        # the same eigenvalues over an unreduced scale
        _with_table(good, scale=6, values=[2 * v for v in values]),
        _with_table(good, values=values[:1] + values[2:3] + values[1:2]
                    + values[3:]),  # decreasing
        _with_table(good, values=values[:-1] + [24]),  # 8 > the cutoff 7
    ]
    _plant_misses(capsys, args, entry, good, fresh, planted)
    code, again = run_cli(capsys, *args)
    assert again == fresh


def test_foreign_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    args = ("torus-spectrum", "--gram", "hexagonal", "--cutoff", "7")
    other = ("torus-spectrum", "--gram", "identity2", "--cutoff", "7")
    code, fresh = run_cli(capsys, *args)
    code, other_table = run_cli(capsys, *other)
    assert code == 0 and other_table != fresh
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path / "mine"))
    run_cli(capsys, *args)
    (entry,) = (tmp_path / "mine").iterdir()
    good = entry.read_text()
    # the entry holds the table's integers, and no complete, under a key
    # that names the code that made it
    t = torus_spectrum(BUILTIN_LATTICES["hexagonal"], 7)
    assert t.to_json() == fresh
    entry_table = json.loads(good)["table"]
    assert entry_table == {
        "unit": t.unit, "cutoff": "7", "scale": t.scale,
        "values": list(t.values), "mults": list(t.mults),
    }
    key = json.loads(good)["key"]
    assert key["code"] == source_digest(Path(liespec.__file__).parent)
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path / "other"))
    run_cli(capsys, *other)
    (foreign,) = (tmp_path / "other").iterdir()
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path / "mine"))
    # this job's table as a /2 and as a /3 entry wrote it: under their own
    # keys, and under the /4 key with their table layouts
    old_key = dict(key, schema="liespec-table-entry/2")
    old_table = json.loads(fresh)
    key_3 = dict(key, schema="liespec-table-entry/3")
    table_3 = dict(entry_table, complete=True)
    planted = [
        other_table,  # a valid table of another job, bare
        foreign.read_text(),  # and as that job's whole entry
        canonical_json({"key": old_key, "table": old_table}),
        canonical_json({"key": key, "table": old_table}),
        canonical_json({"key": key_3, "table": table_3}),
        canonical_json({"key": key, "table": table_3}),
        # this entry as other code made it
        canonical_json({"key": dict(key, code="0" * 64),
                        "table": entry_table}),
    ]
    _plant_misses(capsys, args, entry, good, fresh, planted)


def source_digest(package: Path) -> str:
    """sha256 over the .py files under ``package``, outside __pycache__, in
    order of their paths relative to it: each path, the length of its
    bytes and the bytes."""
    paths = {
        path.relative_to(package).as_posix(): path
        for path in package.rglob("*.py")
        if "__pycache__" not in path.parts
    }
    digest = hashlib.sha256()
    for rel in sorted(paths):
        data = paths[rel].read_bytes()
        digest.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
    return digest.hexdigest()


# A1xA1 < B2 at (1; 2, 1/3): the fiber scale 2 sets the catalogue's budget
STALE_JOB = (
    "natred-spectrum", "--metric",
    '{"group":"B2","embedding":"a1xa1-in-b2","t":"1","t_i":["2","1/3"]}',
    "--cutoff", "2",
)


def test_cache_entry_of_other_code_is_a_miss(tmp_path):
    # a cache filled by a copy of the package, then a change to that copy
    # that changes the table: the changed code prints its own uncached
    # bytes through the same cache, not the entry of the code before it
    package = tmp_path / "src" / "liespec"
    shutil.copytree(
        Path(liespec.__file__).parent, package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = tmp_path / "cache"

    def job(cached):
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # no .pyc of the old sources
        env.pop("LIESPEC_CACHE_DIR", None)
        if cached:
            env["LIESPEC_CACHE_DIR"] = str(cache)
        return subprocess.run(
            [sys.executable, "-m", "liespec.cli", *STALE_JOB],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        ).stdout

    before = job(cached=True)
    assert job(cached=True) == before  # a hit
    natred = package / "natred.py"
    text = natred.read_text(encoding="utf-8")
    budget = "return cutoff * max((m.base_scale,) + m.fiber_scales)"
    assert text.count(budget) == 1
    natred.write_text(text.replace(budget, "return cutoff * m.base_scale"))
    after = job(cached=False)
    assert after != before  # the change reaches this table
    assert job(cached=True) == after
    assert len(list(cache.iterdir())) == 2


def test_cache_entry_for_another_cutoff_or_unit_is_a_miss(
    tmp_path, capsys, monkeypatch
):
    args = ("torus-spectrum", "--gram", "hexagonal", "--cutoff", "7")
    code, fresh = run_cli(capsys, *args)
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    run_cli(capsys, *args)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    # a valid table under this job's key, but at cutoff 3 or in raw units
    t = torus_spectrum(BUILTIN_LATTICES["hexagonal"], 3)
    assert t.values[-1] < json.loads(good)["table"]["values"][-1]
    planted = [
        _with_table(
            good, cutoff="3", scale=t.scale,
            values=list(t.values), mults=list(t.mults),
        ),
        _with_table(good, unit="raw"),
    ]
    _plant_misses(capsys, args, entry, good, fresh, planted)


def test_cache_hit_reads_its_entry_alone(tmp_path, capsys, monkeypatch):
    args = ("group-spectrum", "--spec", "su3", "--cutoff", "4")
    fresh = {
        fmt: run_cli(capsys, *args, "--format", fmt)[1]
        for fmt in ("json", "csv", "pretty")
    }
    cache = tmp_path / "cache"
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(cache))
    run_cli(capsys, *args)
    (entry,) = cache.iterdir()
    good = entry.read_text()

    def refused(*args, **kwargs):
        raise AssertionError(f"a cache hit called makedirs with {args!r}")

    # a hit in each format reads its entry and writes nothing: it makes no
    # directory and leaves no temporary file
    with monkeypatch.context() as patched:
        patched.setattr(os, "makedirs", refused)
        for fmt, out in fresh.items():
            assert run_cli(capsys, *args, "--format", fmt) == (0, out)
            assert os.listdir(cache) == [entry.name]
            assert entry.read_text() == good
    # the same JSON, but not in the bytes a miss writes, is a miss
    obj = json.loads(good)
    planted = [
        json.dumps(obj, sort_keys=True) + "\n",  # spaces after , and :
        json.dumps(obj, sort_keys=True, indent=1) + "\n",
        good.replace('{"key":{', '{"key": {', 1),
        good[:-1],  # no final newline
        good[:-2] + " \n",  # no closing brace
        good + "\n",
        '{"table":{},' + good[1:],  # a repeated key, whose last value wins
    ]
    _plant_misses(capsys, args, entry, good, fresh["json"], planted)


def test_cache_hit_reads_no_eigenvalue_string(tmp_path, capsys, monkeypatch):
    args = ("natred-spectrum", "--metric", METRIC, "--cutoff", "3")
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    code, fresh = run_cli(capsys, *args)
    assert code == 0

    def refused(*args):
        raise AssertionError(f"a cache hit called this with {args!r}")

    # a hit builds no catalogue and evaluates no row: the entry's
    # integers go to the table constructor as they are
    monkeypatch.setattr("liespec.natred.term_catalogue", refused)
    monkeypatch.setattr("liespec.natred.linear_table", refused)
    code, hit = run_cli(capsys, *args)
    assert (code, hit) == (0, fresh)


def test_determinism(capsys):
    # a second, cold process with another hash seed prints the same bytes
    args = ("natred-spectrum", "--metric", METRIC, "--cutoff", "3")
    code, first = run_cli(capsys, *args)
    assert code == 0
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="7"
    )
    second = subprocess.run(
        [sys.executable, "-m", "liespec.cli", *args],
        env=env, capture_output=True, check=True,
    ).stdout
    assert second == first.encode()


def test_file_descriptor_input(tmp_path, capsys):
    spec = tmp_path / "group.json"
    spec.write_text(
        '{"factors": ["A1"], "gamma": [[["1/2"]]], "scales": ["1"]}'
    )
    code, out = run_cli(
        capsys, "group-spectrum", "--spec", str(spec), "--cutoff", "3"
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries[0] == ["0", "1"] and entries[1] == ["1", "9"]



def _error(capsys, argv):
    """Exit code and error object of one run that must fail cleanly."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)["error"]


def test_malformed_descriptors_exit_one(tmp_path, capsys):
    not_object = tmp_path / "list.json"
    not_object.write_text("[1,2]")
    b2 = '{"group": "B2", "embedding": "a1xa1-in-b2", "t": "1", "t_i": %s}'
    for argv in (
        ("group-spectrum", "--spec", str(not_object)),
        ("torus-spectrum", "--gram", '{"basis": 5}'),
        ("natred-spectrum", "--metric", METRIC.replace('["1/2"]', "5")),
        # strings where arrays belong are not read one character at a time
        ("natred-spectrum", "--metric", b2 % '"23"'),
        ("torus-spectrum", "--gram", '{"gram": ["21", "12"]}'),
        # JSON true is not the rational 1
        ("natred-spectrum", "--metric", METRIC.replace('"1"', "true")),
        # a missing key, a non-string type name or descriptor
        ("natred-spectrum", "--metric", METRIC.replace(', "t": "1"', "")),
        ("group-spectrum", "--spec", '{"factors": [5]}'),
        ("natred-spectrum", "--metric",
         METRIC.replace('"a1-in-a2-standard"', "5")),
    ):
        code, err = _error(capsys, argv + ("--cutoff", "3"))
        assert (code, err["type"]) == (1, "InputError"), argv
    code, err = _error(
        capsys, ("validate-embedding", "--embedding", '{"factors": ["A1"]}')
    )
    assert (code, err["type"]) == (1, "InputError")
    assert "'ambient'" in err["message"]
    # an embedding name that is not a string is not echoed back
    emb = '{"ambient": "A2", "factors": ["A1"], "restriction": [["1", "1"]], '
    code, err = _error(
        capsys, ("validate-embedding", "--embedding", emb + '"name": [5]}')
    )
    assert (code, err["type"]) == (1, "InputError")


# one descriptor of each kind, the command and option that read it, and
# the paths of its arrays: each array-valued field, each matrix row, the
# Gamma element and its coweight; the metric's embedding is inline
_ARRAY_PATHS = (
    ("torus-spectrum", "--gram", {"gram": [["2", "1"], ["1", "2"]]},
     (("gram",), ("gram", 0), ("gram", 1))),
    ("torus-spectrum", "--gram", {"basis": [["1", "0"], ["1", "2"]]},
     (("basis",), ("basis", 0), ("basis", 1))),
    ("group-spectrum", "--spec",
     {"factors": ["A1", "A1"], "gamma": [[["1/2"], ["1/2"]]],
      "scales": ["1", "2"]},
     (("factors",), ("gamma",), ("gamma", 0), ("gamma", 0, 0),
      ("gamma", 0, 1), ("scales",))),
    ("natred-spectrum", "--metric",
     {"group": "B2", "t": "1", "t_i": ["1/2", "1/3"],
      "embedding": {"ambient": "B2", "factors": ["A1", "A1"],
                    "restriction": [["1", "0"], ["1", "1"]]}},
     (("t_i",), ("embedding", "factors"), ("embedding", "restriction"),
      ("embedding", "restriction", 0), ("embedding", "restriction", 1))),
    ("validate-embedding", "--embedding",
     {"ambient": "A2", "factors": ["A1"], "restriction": [["1", "1"]]},
     (("factors",), ("restriction",), ("restriction", 0))),
)


def _replaced(obj, path, value):
    """A deep copy of the JSON ``obj`` with ``value`` at ``path``."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    inner = obj
    for key in head:
        inner = inner[key]
    inner[last] = value
    return json.dumps(obj)


def test_every_array_of_a_descriptor_refuses_what_is_no_array(capsys):
    # an object, null, a number, a string, true or a float where an array
    # belongs is an InputError, exit code 1, at every array of every kind
    # of descriptor; null for scales is the one exception, the default
    for command, option, obj, paths in _ARRAY_PATHS:
        cutoff = () if command == "validate-embedding" else ("--cutoff", "1")
        code, _ = run_cli(capsys, command, option, json.dumps(obj), *cutoff)
        assert code == 0, (command, obj)
        for path in paths:
            for value in ({"a": 1}, None, 5, "12", True, 1.5):
                argv = (command, option, _replaced(obj, path, value), *cutoff)
                if path == ("scales",) and value is None:
                    assert run_cli(capsys, *argv)[0] == 0
                    continue
                code, err = _error(capsys, argv)
                assert (code, err["type"]) == (1, "InputError"), (path, value)


def test_lattice_dim_is_exact(capsys):
    lattice = '{"dim": %s, "gram": [["1", "0"], ["0", "1"]]}'
    for dim, expected in (
        ("2.7", (1, "InputError")),  # a JSON float is not truncated to 2
        ('"5/2"', (2, "DomainError")),  # a rational, but not an integer
        ("true", (1, "InputError")),
    ):
        code, err = _error(
            capsys, ("torus-spectrum", "--gram", lattice % dim, "--cutoff", "3")
        )
        assert (code, err["type"]) == expected, dim
    code, out = run_cli(
        capsys, "torus-spectrum", "--gram", lattice % '"2"', "--cutoff", "3"
    )
    assert code == 0


def test_options_are_read_by_the_library_coercers(capsys):
    for argv, expected in (
        # text that is not a rational is an input error
        (("torus-spectrum", "--gram", "identity2", "--cutoff", "abc"),
         (1, "InputError")),
        (("scan", "--metric", METRIC, "--radius", "1/10", "--steps", "x",
          "--cutoff", "2"), (1, "InputError")),
        # a rational that is not an integer is outside the domain
        (("scan", "--metric", METRIC, "--radius", "1/10", "--steps", "5/2",
          "--cutoff", "2"), (2, "DomainError")),
        # a grid of radius 0 has one step, the center
        (("scan", "--metric", METRIC, "--radius", "0", "--steps", "3",
          "--cutoff", "2"), (2, "DomainError")),
        (("branch", "--embedding", "a1-in-a2-standard", "--weight", "1.5,0"),
         (2, "DomainError")),
    ):
        code, err = _error(capsys, argv)
        assert (code, err["type"]) == expected, argv
    # an integer-valued decimal is an integer, as "0.1" is the rational 1/10
    search = ("torus-search", "--values", "1,2", "--lambda-min", "1/2",
              "--vol-min", "1/2", "--dim")
    code, out = run_cli(capsys, *search, "2.0")
    assert code == 0
    assert out == run_cli(capsys, *search, "2")[1]


def test_cache_entry_with_bool_cutoff_is_a_miss(tmp_path, capsys, monkeypatch):
    args = ("torus-spectrum", "--gram", "identity2", "--cutoff", "1")
    code, fresh = run_cli(capsys, *args)
    monkeypatch.setenv("LIESPEC_CACHE_DIR", str(tmp_path))
    run_cli(capsys, *args)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    # cutoff "1", scale 1, values [0, 1]: a bool or float equal to each
    # still names no integer
    assert json.loads(good)["table"]["scale"] == 1
    assert json.loads(good)["table"]["values"] == [0, 1]
    planted = [
        _with_table(good, cutoff=True),
        _with_table(good, scale=True),
        _with_table(good, scale=1.0),
        _with_table(good, values=[False, True]),
        _with_table(good, values=[0, 1.0]),
    ]
    _plant_misses(capsys, args, entry, good, fresh, planted)


# A library function patched to raise a builtin exception, as a bug would,
# and a job that reaches it; the exit code is 3 whatever the exception is.
_FAULTS = (
    ("liespec.lattices.spectra._norm_counts",
     ["torus-spectrum", "--gram", "identity2", "--cutoff", "4"]),
    ("liespec.branching._branch",
     ["natred-spectrum", "--metric", METRIC, "--cutoff", "1"]),
)
_INTERNAL = {
    "KeyError": "KeyError: 'injected'",  # str() of a KeyError quotes it
    "ValueError": "ValueError: injected",
    "TypeError": "TypeError: injected",
}


def test_library_bug_exits_three(capsys, monkeypatch):
    for target, argv in _FAULTS:
        for name, message in _INTERNAL.items():
            def broken(*args, exc_type=getattr(builtins, name)):
                raise exc_type("injected")

            monkeypatch.setattr(target, broken)
            code, err = _error(capsys, argv)
            assert code == 3
            assert err == {"type": "InternalError", "message": message}
            monkeypatch.undo()


# The same faults under python -O; prints the exit code and output of
# cli.main for each.
_INTERNAL_FAULT_SCRIPT = """
import builtins, contextlib, importlib, io, json
from liespec.cli import main

results = []
for target, argv in FAULTS:
    module_name, name = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    real = getattr(module, name)
    for exc_name in ("KeyError", "ValueError", "TypeError"):
        def broken(*args, exc_type=getattr(builtins, exc_name)):
            raise exc_type("injected")
        setattr(module, name, broken)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        results.append([exc_name, code, json.loads(buf.getvalue())])
    setattr(module, name, real)
print(json.dumps({"debug": __debug__, "results": results}))
"""


def test_library_bug_exits_three_under_optimize():
    result = _run_optimized(f"FAULTS = {_FAULTS!r}\n" + _INTERNAL_FAULT_SCRIPT)
    assert result["debug"] is False
    assert len(result["results"]) == 6
    for name, code, out in result["results"]:
        assert code == 3
        assert out == {
            "error": {"type": "InternalError", "message": _INTERNAL[name]}
        }
