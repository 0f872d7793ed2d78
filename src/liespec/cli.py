"""Command-line front door.

One logical job per invocation: argparse names the runner, and the runner
hands the option strings to the library, whose own coercers (``rat``,
``exact_int``, ``check_weight``) read them.  Inputs are builtin names,
inline JSON, or file paths; outputs are canonical JSON (sorted keys,
rationals as "p/q" strings), CSV, or aligned pretty text.  Exit codes: 0
success; 1 input, I/O and usage errors (text that does not parse, a
missing file, an unknown or missing flag); 2 domain and certification
errors; 3 internal errors (an exception that is not the package's own,
which means a bug).  Errors go to stdout as a structured error object,
never a stack trace or usage text.  Output bytes depend only on the inputs.

Set LIESPEC_CACHE_DIR to memoize spectrum tables on disk; cached and fresh
runs emit identical bytes.  The cache key is the canonical JSON of the job
together with the package version and the entry schema; each entry stores
that key beside the table's canonical integers (unit, cutoff, scale,
values, mults).  A hit begins with the bytes a miss writes for its key and
holds a table at the job's cutoff and unit, whose fields alone go to the
validating ``SpectrumTable`` constructor.  Entries are written atomically;
any other entry (one that does not parse, holds an invalid table, another
field or another key, an older schema's among them) is a miss, rewritten.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from functools import lru_cache

from . import __version__
from .branching import EmbeddingSpec, branch, validate_embedding
from .catalog import resolve
from .errors import DomainError, InputError, LiespecError
from .groups import GroupSpec, biinvariant_spectrum
from .isolation import (
    finiteness_window,
    gamma_invariants,
    isolation_scan,
    torus_search,
)
from .lattices import Lattice, torus_spectrum
from .natred import NatRedMetric, natred_spectrum
from .rational import fmt, rat
from .spectrum import SpectrumTable, canonical_json


def _split(text: str) -> list:
    return text.split(",") if text else []


def _emit_report(data: dict, out_format: str) -> str:
    """A report, whose rationals are strings already, in ``out_format``."""
    if out_format == "json":
        return canonical_json(data)
    if out_format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k in sorted(data):
            writer.writerow([k, json.dumps(data[k], sort_keys=True)])
        return buf.getvalue()
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# names the layout of a cache entry; change it when that layout changes
_CACHE_SCHEMA = "liespec-table-entry/4"


def _entry(table: SpectrumTable) -> dict:
    """The table's canonical integers, with its cutoff as ``fmt`` writes
    it, for a cache entry."""
    return {
        "unit": table.unit,
        "cutoff": fmt(table.cutoff),
        "scale": table.scale,
        "values": table.values,
        "mults": table.mults,
    }


def _from_entry(obj, cutoff) -> SpectrumTable:
    """The table of ``_entry``'s dict at the job's ``cutoff``, through the
    validating constructor, which refuses a non-int or bool scale, value or
    multiplicity, and a field that ``_entry`` does not write (TypeError)."""
    return SpectrumTable(**dict(
        obj,
        cutoff=cutoff,
        values=tuple(obj["values"]),
        mults=tuple(obj["mults"]),
    ))


def _cached_table(job, cutoff, unit, builder) -> SpectrumTable:
    """The table of ``job``, at ``cutoff`` in ``unit``: a hit's, else the
    one ``builder()`` makes, which is then written to the cache."""
    cache = os.environ.get("LIESPEC_CACHE_DIR")
    if not cache:
        return builder()
    key = {"schema": _CACHE_SCHEMA, "version": __version__, "job": job}
    key_text = canonical_json(key)
    digest = hashlib.sha256(key_text.encode()).hexdigest()
    path = os.path.join(cache, digest + ".json")
    head = f'{{"key":{key_text[:-1]},"table":'  # how a miss's entry begins
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith(head) and text.endswith("}\n"):
            obj = json.loads(text[len(head):-2])
            if (obj["unit"], obj["cutoff"]) == (unit, job["cutoff"]):
                return _from_entry(obj, cutoff)
    except (FileNotFoundError, ValueError, KeyError, TypeError, DomainError):
        pass  # a miss; a corrupt entry (JSONDecodeError is a ValueError) too
    table = builder()
    os.makedirs(cache, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            entry = {"key": key, "table": _entry(table)}
            fh.write(canonical_json(entry))
        os.replace(tmp, path)  # readers see the old state or the whole entry
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return table


# spectrum subcommand: (descriptor option, cache-key op, cache-key name,
# descriptor type, spectrum function, unit of its tables)
_TABLES = {
    "torus-spectrum": ("gram", "torus", "lattice", Lattice, torus_spectrum,
                       "four-pi-squared"),
    "group-spectrum": ("spec", "group", "spec", GroupSpec,
                       biinvariant_spectrum, "raw"),
    "natred-spectrum": ("metric", "natred", "metric", NatRedMetric,
                        natred_spectrum, "raw"),
}


def _run_table(ns) -> str:
    option, op, name, kind, spectrum, unit = _TABLES[ns.command]
    subject = resolve(kind, getattr(ns, option))
    cutoff = rat(ns.cutoff)
    table = _cached_table(
        {"op": op, name: subject.to_json_dict(), "cutoff": fmt(cutoff)},
        cutoff, unit, lambda: spectrum(subject, cutoff),
    )
    return getattr(table, f"to_{ns.fmt}")()  # to_json, to_csv, to_pretty


def _run_branch(ns) -> str:
    emb = resolve(EmbeddingSpec, ns.embedding)
    result = branch(emb, _split(ns.weight))
    report = {
        "embedding": emb.to_json_dict(),
        "weight": list(result.source),
        "terms": [
            {"factors": [list(p) for p in tup], "multiplicity": mult}
            for tup, mult in result.terms
        ],
    }
    return _emit_report(report, ns.fmt)


def _run_gamma(ns) -> str:
    if ns.gram is not None:
        subject = resolve(Lattice, ns.gram)
    else:
        subject = resolve(GroupSpec, ns.spec)
    gv = gamma_invariants(subject)
    report = {
        "kind": gv.kind,
        "dim": gv.dim,
        "entries": [fmt(x) for x in gv.entries],
    }
    return _emit_report(report, ns.fmt)


def _run_scan(ns) -> str:
    report = isolation_scan(
        resolve(NatRedMetric, ns.metric), ns.radius, ns.steps, ns.cutoff
    )
    return _emit_report(report, ns.fmt)


def _run_torus_search(ns) -> str:
    found = torus_search(
        _split(ns.values), ns.dim, ns.lambda_min, ns.vol_min
    )
    report = {
        "count": len(found),
        "tori": [lat.to_json_dict() for lat in found],
    }
    return _emit_report(report, ns.fmt)


def _run_window(ns) -> str:
    value = finiteness_window(ns.lambda1, ns.vol, ns.dim, ns.const)
    return _emit_report({"window": fmt(value)}, ns.fmt)


def _run_validate_embedding(ns) -> str:
    emb = resolve(EmbeddingSpec, ns.embedding)
    report = validate_embedding(emb)
    report["embedding"] = emb.to_json_dict()
    return _emit_report(report, ns.fmt)


def _report_error(exc: Exception, code: int) -> int:
    kind, message = type(exc).__name__, str(exc)
    if code == 3:
        kind, message = "InternalError", f"{kind}: {message}"
    err = {"error": {"type": kind, "message": message}}
    sys.stdout.write(canonical_json(err))
    return code


def run(ns) -> int:
    """Run the parsed job ``ns`` and map what it raises to an exit code."""
    try:
        text = ns.run(ns)
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        return _report_error(exc, 1)
    except LiespecError as exc:
        return _report_error(exc, 2)
    except Exception as exc:  # not the package's own: a bug
        return _report_error(exc, 3)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# command: (runner, help text, required options, options of which exactly
# one is given)
_COMMANDS = {
    "torus-spectrum": (_run_table, "flat torus spectrum",
                       ("gram", "cutoff"), ()),
    "group-spectrum": (_run_table, "bi-invariant group spectrum",
                       ("spec", "cutoff"), ()),
    "natred-spectrum": (_run_table, "naturally reductive metric spectrum",
                        ("metric", "cutoff"), ()),
    "branch": (_run_branch, "restrict an irreducible to a subgroup",
               ("embedding", "weight"), ()),
    "gamma": (_run_gamma, "low-eigenvalue invariant vector",
              (), ("gram", "spec")),
    "scan": (_run_scan, "isospectral neighbor grid scan",
             ("metric", "radius", "steps", "cutoff"), ()),
    "torus-search": (_run_torus_search,
                     "reconstruct tori from invariant values",
                     ("values", "dim", "lambda-min", "vol-min"), ()),
    "window": (_run_window, "finiteness scale window",
               ("lambda1", "vol", "dim", "const"), ()),
    "validate-embedding": (_run_validate_embedding,
                           "structural embedding checks", ("embedding",), ()),
}


@lru_cache(maxsize=None)  # one parser per command name, built on first use
def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` alone, or with all nine
    for None; what a subparser parses and prints does not depend on the
    others, and usage text and help need all nine."""
    parser = _Parser(
        prog="liespec",
        description=(
            "Exact truncated Laplace spectra of flat tori and compact "
            "Lie groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command else _COMMANDS:
        runner, help_text, options, one_of = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", required=True)
        p.add_argument(
            "--format",
            choices=("json", "csv", "pretty"),
            default="json",
            dest="fmt",
        )
        p.add_argument("--out")
        if one_of:
            group = p.add_mutually_exclusive_group(required=True)
            for option in one_of:
                group.add_argument(f"--{option}")
        p.set_defaults(run=runner)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        ns = _build_parser(command).parse_args(argv)
    except argparse.ArgumentError as exc:
        return _report_error(exc, 1)
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
