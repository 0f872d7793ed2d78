"""Recorded source mutations and the tests that must catch each one.

A mutant names a module under src/liespec, an exact old text that occurs
once in it, the new text that replaces it, and the test node ids that must
fail once it is replaced.  Run the whole list, or the mutants named as
arguments, with

    python tests/mutants.py [NAME ...]

Each mutant is applied in its own temporary copy of src/ and tests/, and
its node ids run there with ``pytest -x``; a mutant that deletes a
certification raise runs them under ``python -O``, where no assert can
catch the fault in the raise's place.  A mutant is killed when pytest
reports a failed test; one whose tests pass, or that pytest cannot run
(a node id that does not exist), is named, and the exit code is 1.  The
last line is ``killed K of N`` for the N mutants run.
tests/test_mutants.py checks that every old text occurs exactly once, so
a change that moves the code must move its mutant too.  Standard library
only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/liespec
    old: str
    new: str
    kills: tuple  # node ids relative to the repository root
    optimize: bool = False  # run the node ids under python -O


_BOUNDS = "tests/test_isolation.py::test_torus_search_keeps_tori_on_its_bounds"
_TOO_LONG = "tests/test_cli.py::test_table_too_long_to_write_exits_two"
_DIVISIONS = "tests/test_lattices.py::test_inexact_divisions_raise"
_COLD = ("tests/test_natred.py::"
         "test_a_cold_run_checks_only_the_weights_that_come_in")
_ZERO_MINOR = ("tests/test_linalg.py::"
               "test_a_zero_leading_minor_stops_the_elimination_and_is_refused")
_FIELD_GUARD = ("tests/test_kernel.py::"
                "test_the_field_guard_refuses_a_coordinate_at_its_limit")
_DISTANCE = ("tests/test_spectrum_table.py::"
             "test_distance_of_rows_against_counts_is_the_sum_of_differences")

MUTANTS = (
    # boundaries that survived the whole suite until their tests were added
    Mutant(
        "containment-witnessed-at-zero", "natred.py",
        '"witnessed" if found > 0', '"witnessed" if found >= 0',
        ("tests/test_natred.py::"
         "test_containment_fails_on_a_table_without_its_witness",),
    ),
    Mutant(
        "torus-search-volume-bound", "isolation.py",
        "dual_torus.det_gram * vol_min**2 > 1",
        "dual_torus.det_gram * vol_min**2 >= 1",
        (_BOUNDS,),
    ),
    Mutant(
        "torus-search-systole-bound", "isolation.py",
        "systole(dual_torus) < lam_min", "systole(dual_torus) <= lam_min",
        (_BOUNDS,),
    ),
    Mutant(
        "scan-floor-prune", "isolation.py",
        "sum(map(mul, g, floor)) <= limit", "sum(map(mul, g, floor)) < limit",
        ("tests/test_isolation.py::"
         "test_scan_keeps_a_row_on_the_cutoff_at_the_grid_floor",),
    ),
    # boundaries and branches that the suite already killed
    Mutant(
        "counts-below-the-limit", "spectrum.py",
        "        if v <= limit:\n            counts[v]",
        "        if v < limit:\n            counts[v]",
        ("tests/test_natred.py::test_terms_small_table",),
    ),
    Mutant(
        "fold-cut-keeps-the-cutoff-out", "groups.py",
        "if u > room:", "if u >= room:",
        ("tests/test_groups.py::"
         "test_fold_drops_partial_sums_past_the_cutoff",),
    ),
    Mutant(
        "line-product-drops-a-fixed-coroot", "weights.py",
        "prod(fields[:split])", "prod(fields[:split - 1])",
        ("tests/test_weights.py::test_enumerated_casimirs_match_reference",),
    ),
    Mutant(
        "metric-budget-without-fibers", "natred.py",
        "return cutoff * max((m.base_scale,) + m.fiber_scales)",
        "return cutoff * m.base_scale",
        ("tests/test_natred.py::test_terms_match_per_metric_reference",),
    ),
    Mutant(
        "lambda1-reads-one-value", "spectrum.py",
        "for v in self.values[:2]:", "for v in self.values[:1]:",
        ("tests/test_groups.py::test_factor_lambda1",),
    ),
    Mutant(
        "scan-skips-no-equivalent", "isolation.py",
        "if fiber_fills_group and fibers == center_fibers:",
        "if False:",
        ("tests/test_isolation.py::"
         "test_scan_skips_equivalent_when_subgroup_fills_group",),
    ),
    Mutant(
        "wall-sign", "branching.py",
        "(_pack(k, [x - 1 for x in v]), sign)",
        "(_pack(k, [x - 1 for x in v]), -sign)",
        ("tests/test_branching.py::test_tensor_product_brauer_klimyk",
         "tests/test_kernel.py::"
         "test_kernel_branchings_match_the_oracles_under_a_budget"),
    ),
    Mutant(
        "freudenthal-one-root", "weights.py",
        "        for beta in roots:\n"
        "            nu = tuple(map(sub, mu, beta))",
        "        for beta in roots[:1]:\n"
        "            nu = tuple(map(sub, mu, beta))",
        ("tests/test_weights.py::"
         "test_freudenthal_reaches_every_dominant_weight_below_the_highest",),
    ),
    # the disk cache: its key names the code, and a hit is at the job's
    # cutoff and unit
    Mutant(
        "source-digest-of-paths-only", "cli.py",
        'digest.update(b"%s\\0%d\\0%s" % (rel.encode(), len(data), data))',
        "digest.update(rel.encode())",
        ("tests/test_cli.py::test_cache_entry_of_other_code_is_a_miss",
         "tests/test_cli.py::test_foreign_cache_entry_is_a_miss"),
    ),
    Mutant(
        "cache-hit-at-another-cutoff-or-unit", "cli.py",
        'if (obj["unit"], obj["cutoff"]) == (unit, job["cutoff"]):',
        "if True:",
        ("tests/test_cli.py::"
         "test_cache_entry_for_another_cutoff_or_unit_is_a_miss",),
    ),
    # an answer too long to write exits 2 from every writer
    Mutant(
        "table-writer-unguarded", "cli.py",
        "text = written(_render, result, ns.fmt)",
        "text = _render(result, ns.fmt)",
        (_TOO_LONG,),
    ),
    Mutant(
        "cache-writer-unguarded", "cli.py",
        'text = written(canonical_json, {"key": key, "table": _entry(table)})',
        'text = canonical_json({"key": key, "table": _entry(table)})',
        (_TOO_LONG,),
    ),
    # certification raises deleted
    Mutant(
        "horizontal-positivity-unchecked", "natred.py",
        "if c_lam < fiber:", "if False:",
        ("tests/test_natred.py::"
         "test_horizontal_positivity_raises_in_process",),
        optimize=True,
    ),
    Mutant(
        "lll-swap-division-unchecked", "lattices/reduction.py",
        'raise CertificationError("inexact division in the LLL swap update")',
        "pass",
        (_DIVISIONS,),
        optimize=True,
    ),
    Mutant(
        "kernel-entries-unchecked", "lattices/enumeration.py",
        "        a12 = _exact(2 * (w1 * p1 * r12 + w0 * r01 * r02), total)\n"
        "        a22 = _exact(w2 * p2 * p2 + w1 * r12 * r12 + w0 * r02 * r02, "
        "total)",
        "        a12 = 2 * (w1 * p1 * r12 + w0 * r01 * r02) // total\n"
        "        a22 = (w2 * p2 * p2 + w1 * r12 * r12 + w0 * r02 * r02)"
        " // total",
        ("tests/test_cli.py::test_level_two_certification_survives_optimize",),
    ),
    Mutant(
        "kernel-tail-coefficients-unchecked", "lattices/enumeration.py",
        "        beta0 = _exact(2 * (w1 * p1 * b1 + w0 * r01 * b0), total)\n"
        "        g1 = _exact(2 * (w2 * p2 * c2 + w1 * r12 * b1 + w0 * r02 * b0)"
        ", total)\n"
        "        g0 = _exact(used + w2 * c2 * c2 + w1 * b1 * b1 + w0 * b0 * b0"
        ", total)",
        "        beta0 = 2 * (w1 * p1 * b1 + w0 * r01 * b0) // total\n"
        "        g1 = 2 * (w2 * p2 * c2 + w1 * r12 * b1 + w0 * r02 * b0)"
        " // total\n"
        "        g0 = (used + w2 * c2 * c2 + w1 * b1 * b1 + w0 * b0 * b0)"
        " // total",
        ("tests/test_cli.py::"
         "test_level_two_tail_certification_survives_optimize",),
    ),
    Mutant(
        "kernel-division-unchecked", "lattices/enumeration.py",
        '        raise CertificationError("x^T A x is not an integer")\n'
        "    return q",
        "        pass\n    return q",
        (_DIVISIONS,),
        optimize=True,
    ),
    # the checks on a branching and a character
    Mutant(
        "result-dimension-unchecked", "branching.py",
        "if total != _weyl_dim(emb.ambient, lam):", "if False:",
        ("tests/test_branching.py::"
         "test_a_faulty_step_fails_its_checks_and_is_peeled",),
    ),
    Mutant(
        "result-negative-multiplicity-unchecked", "branching.py",
        "if min(terms.values()) < 0:", "if False:",
        ("tests/test_branching.py::"
         "test_a_negative_multiplicity_fails_where_dimensions_add_up",),
        optimize=True,
    ),
    Mutant(
        "peel-invariance-unchecked", "branching.py",
        "if restricted.get(top) != mult:", "if False:",
        ("tests/test_branching.py::"
         "test_non_invariant_restriction_is_malformed",),
    ),
    Mutant(
        "restriction-remainder-unchecked", "branching.py",
        "if rest:\n                raise MalformedEmbeddingError(",
        "if False:\n                raise MalformedEmbeddingError(",
        ("tests/test_branching.py::test_malformed_non_integer_image",),
    ),
    Mutant(
        "weight-diagram-total-unchecked", "weights.py",
        "if sum(full.values()) != _weyl_dim(rs, lam):", "if False:",
        ("tests/test_weights.py::"
         "test_weight_diagram_checks_its_total_against_weyl_dim",),
        optimize=True,
    ),
    Mutant(
        "dominance-gate-lets-minus-one-through", "rootdata.py",
        "if min(lam) < 0:\n        raise DomainError(message)",
        "if min(lam) < -1:\n        raise DomainError(message)",
        ("tests/test_rootdata.py::test_casimir_requires_dominant",),
    ),
    Mutant(
        "string-weight-read-per-character", "rational.py",
        "if not isinstance(value, (str, bytes, bytearray, Mapping, Set)):",
        "if True:",
        ("tests/test_rootdata.py::test_string_weight_is_refused",),
    ),
    Mutant(
        "bytes-row-read-as-byte-values", "rational.py",
        "(str, bytes, bytearray, Mapping", "(str, Mapping",
        ("tests/test_surface.py::"
         "test_every_door_refuses_an_argument_that_is_no_sequence",),
    ),
    Mutant(
        "sequence-reads-a-mapping", "rational.py",
        "bytearray, Mapping, Set)", "bytearray, Set)",
        ("tests/test_surface.py::"
         "test_every_door_refuses_an_argument_that_is_no_sequence",),
    ),
    Mutant(
        "sequence-reads-a-set", "rational.py",
        "Mapping, Set)", "Mapping)",
        ("tests/test_surface.py::"
         "test_every_door_refuses_an_argument_that_is_no_sequence",),
    ),
    Mutant(
        "embedding-name-unchecked", "branching.py",
        "if name is not None and not isinstance(name, str):",
        "if False:",
        ("tests/test_branching.py::"
         "test_an_embedding_name_that_is_no_string_is_refused",),
    ),
    Mutant(
        "non-sequence-raises-a-type-error", "rational.py",
        "        except TypeError:\n            pass",
        "        except ValueError:\n            pass",
        ("tests/test_surface.py::"
         "test_every_door_refuses_an_argument_that_is_no_sequence",),
    ),
    # the natred eigenvalue formula (the Killing ratio, the sign of the
    # horizontal row, the fiber tail, the quotient's zero-tail rows, a
    # dropped branching term) and the containment lemma's instruments
    Mutant(
        "killing-ratio-doubled", "branching.py",
        "ind * emb.ambient.dual_coxeter / f.dual_coxeter",
        "2 * ind * emb.ambient.dual_coxeter / f.dual_coxeter",
        ("tests/test_branching.py::test_standard_a1_in_a2",),
    ),
    Mutant(
        "horizontal-row-sign", "natred.py",
        "row = (c_lam - fiber,) + tail", "row = (c_lam + fiber,) + tail",
        ("tests/test_natred.py::test_terms_match_per_metric_reference",),
    ),
    Mutant(
        "fiber-tail-of-the-other-factor", "natred.py",
        "map(casimir_num, factors, tup), scales",
        "map(casimir_num, factors, tup[::-1]), scales",
        ("tests/test_natred.py::test_terms_match_per_metric_reference",),
    ),
    Mutant(
        "quotient-tail-of-the-first-fiber", "natred.py",
        "if not any(g[1:])]", "if not any(g[1:2])]",
        ("tests/test_natred.py::"
         "test_normal_quotient_matches_fraction_reference",),
    ),
    Mutant(
        "recursion-drops-a-term", "branching.py",
        "for kappa, c in coeffs.items():",
        "for kappa, c in list(coeffs.items())[1:]:",
        ("tests/test_branching.py::"
         "test_term_catalogue_recurses_past_the_fundamentals",),
    ),
    Mutant(
        "beta-factor-sign", "natred.py",
        "x * t / (t - x) for x in m.fiber_scales",
        "x * t / (x - t) for x in m.fiber_scales",
        ("tests/test_natred.py::test_beta_factors",),
    ),
    Mutant(
        "containment-witness-without-the-flip", "natred.py",
        "label = tuple(map(_contragredient, factors, tau))",
        "label = tau",
        ("tests/test_natred.py::"
         "test_containment_witness_is_the_dual_of_its_branch_label",),
    ),
    Mutant(
        "containment-without-its-mode-check", "natred.py",
        'if m.mode != "riemannian-fibers":', "if False:",
        ("tests/test_natred.py::test_containment_edge_cases",),
    ),
    # work added without a change of output, which a count pins
    Mutant(
        "wall-memo-off", "branching.py",
        "    k.walls[t] = image\n", "",
        ("tests/test_branching.py::"
         "test_each_wall_sum_is_reflected_once_per_k",),
    ),
    Mutant(
        "lattice-eliminated-twice", "lattices/lattice.py",
        "return _reduced_form(*self._elimination)",
        "a, q, _ = self._elimination\n"
        "        return _reduced_form(a, q, linalg.eliminate(a))",
        ("tests/test_lattices.py::test_one_elimination_per_lattice",),
    ),
    Mutant(
        "spectrum-keeps-no-lambda1", "lattices/spectra.py",
        'lat.__dict__.setdefault("_dual_minimum"',
        'lat.__dict__.get("_dual_minimum"',
        ("tests/test_lattices.py::test_lll_eliminates_once",),
    ),
    # each weight checked once, at the door it comes in by
    Mutant(
        "weyl-core-checks-again", "weights.py",
        '''    """dim V_lam by the Weyl dimension formula, lam dominant."""\n''',
        '''    """dim V_lam by the Weyl dimension formula, lam dominant."""\n'''
        '    lam = check_dominant(rs, lam, "weyl_dim expects a dominant "'
        '"weight")\n',
        (_COLD,),
    ),
    Mutant(
        "diagram-memo-off", "branching.py",
        "@lru_cache(maxsize=None)\ndef _diagram(", "def _diagram(",
        (_COLD,),
    ),
    Mutant(
        "peel-diagram-checks-again", "branching.py",
        "for nu, mult in _weight_diagram(emb.ambient, lam):",
        "for nu, mult in weight_diagram(emb.ambient, lam):",
        (_COLD,),
    ),
    # the packed kernel: its fast path only for sums with no negative
    # coordinate, and the guard that keeps each coordinate in its field
    Mutant(
        "kernel-fast-path-for-every-sum", "branching.py",
        "if t & high == high:", "if True:",
        ("tests/test_kernel.py::"
         "test_kernel_branchings_match_the_oracles_under_a_budget",),
    ),
    Mutant(
        "field-guard-off-for-restricted-weights", "branching.py",
        "if any(not -_LIMIT < x < _LIMIT for x in coords):", "if False:",
        (_FIELD_GUARD,),
        optimize=True,
    ),
    Mutant(
        "field-guard-off-for-k-types", "branching.py",
        "if key & k.guard:", "if False:",
        (_FIELD_GUARD,),
        optimize=True,
    ),
    # a wrong-kind record at a door, and ok from validate_embedding for an
    # embedding whose catalogue cannot be built
    Mutant(
        "record-kind-unchecked", "rational.py",
        "if not isinstance(value, cls):", "if False:",
        ("tests/test_surface.py::"
         "test_every_door_refuses_a_record_of_the_wrong_kind",),
    ),
    Mutant(
        "weight-gate-skips-the-root-system", "rootdata.py",
        "    check_root_system(rs)\n    w = sequence(",
        "    w = sequence(",
        ("tests/test_surface.py::"
         "test_every_door_refuses_a_record_of_the_wrong_kind",),
    ),
    Mutant(
        "validate-skips-the-subalgebra-adjoint", "branching.py",
        "if _pack(k, coords) not in adjoint:", "if False:",
        ("tests/test_branching.py::"
         "test_an_embedding_reported_ok_has_a_spectrum",),
    ),
    Mutant(
        "validate-skips-the-fundamentals", "branching.py",
        "        for i in range(rank)\n    ]",
        "        for i in range(0)\n    ]",
        ("tests/test_branching.py::"
         "test_an_embedding_reported_ok_has_a_spectrum",),
    ),
    Mutant(
        "skipped-peel-reported-passed", "branching.py",
        'outcome = f"skipped: dimension {dim} is over {_PEEL_CHECK_LIMIT}"',
        "outcome = {}",
        ("tests/test_branching.py::"
         "test_a_fundamental_weight_too_large_to_peel_is_skipped",),
    ),
    # an option value that starts with "-" and a digit
    Mutant(
        "negative-option-value-read-as-a-flag", "cli.py",
        're.match(r"-\\d", argv[i])', 're.match(r"-\\d+$", argv[i])',
        ("tests/test_cli.py::test_negative_option_value_is_read_as_a_value",),
    ),
    # the grid scan on integer rows: the distance of rows against counts,
    # each point's own limit test, and the fiber = base skip
    Mutant(
        "distance-counts-shared-once", "spectrum.py",
        "- 2 * sum(", "- sum(",
        (_DISTANCE,),
    ),
    Mutant(
        "distance-max-of-shared", "spectrum.py",
        "min(mult, counts[v])", "max(mult, counts[v])",
        (_DISTANCE,),
    ),
    Mutant(
        "scan-point-limit", "isolation.py",
        "[v <= limit for v in row]", "[v < limit for v in row]",
        ("tests/test_isolation.py::"
         "test_scan_keeps_a_row_on_the_cutoff_at_a_grid_point",),
    ),
    Mutant(
        "scan-skips-no-fiber-on-base", "isolation.py",
        "if base in fibers:", "if False:",
        ("tests/test_isolation.py::test_scan_matches_per_point_reference",),
    ),
    # elimination with no row exchange: it stops at a zero leading minor,
    # which the adjugate and the positive-definiteness decision refuse
    Mutant(
        "elimination-past-a-zero-pivot", "linalg.py",
        "if not p:\n            break", "if False:\n            break",
        (_ZERO_MINOR,),
    ),
    Mutant(
        "adjugate-at-a-zero-minor", "linalg.py",
        "if not pivots[-1]:", "if False:",
        (_ZERO_MINOR,),
    ),
    Mutant(
        "gram-with-a-zero-minor-accepted", "lattices/lattice.py",
        "if min(pivots) <= 0:", "if min(pivots) < 0:",
        (_ZERO_MINOR,),
    ),
    # the header rows of the two CSV forms
    Mutant(
        "table-csv-header", "spectrum.py",
        '["eigenvalue", "multiplicity"]', '["eigenvalue", "mult"]',
        ("tests/test_cli.py::test_csv_format",),
    ),
    Mutant(
        "report-csv-header", "cli.py",
        '["key", "value"]', '["value", "key"]',
        ("tests/test_cli.py::test_report_csv_is_key_value_rows",),
    ),
)


def verdict(mutant: Mutant) -> str:
    """"killed", "survived", or what kept pytest from running the ids."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)  # pytest's settings
        path = tmp / "src" / "liespec" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "old text does not occur exactly once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.pop("LIESPEC_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, *["-O"] * mutant.optimize, "-m", "pytest",
             "-x", "-q", "-p", "no:cacheprovider", *mutant.kills],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"pytest exit {proc.returncode}: {proc.stdout[-300:]}"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    run = [m for m in MUTANTS if not names or m.name in names]
    alive = []
    for mutant in run:
        result = verdict(mutant)
        print(f"{mutant.name}: {result}", flush=True)
        if result != "killed":
            alive.append(mutant.name)
    if alive:
        print(f"not killed: {', '.join(alive)}")
    print(f"killed {len(run) - len(alive)} of {len(run)}")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
