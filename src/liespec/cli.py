"""Command-line front door.

One logical job per invocation: argparse names the runner, which hands the
option strings to the library's own coercers (``rat``, ``exact_int``,
``check_weight``) and returns data, a report or a ``SpectrumTable``; ``run``
alone renders it as canonical JSON (sorted keys, rationals as "p/q"
strings), CSV, or aligned pretty text.  Exit codes: 0 success; 1 input,
I/O and usage errors (text that does not parse, a missing file, an unknown
or missing flag); 2 domain and certification errors, an answer too long to
write among them; 3 internal errors (an exception that is not the
package's own, which means a bug).  Errors go to stdout as a structured
error object, never a stack trace or usage text.  Output bytes depend only
on the inputs.

Set LIESPEC_CACHE_DIR to memoize spectrum tables on disk; cached and fresh
runs emit identical bytes.  The cache key is the canonical JSON of the job
together with a sha256 of the package's own sources, the code that makes
the table; each entry stores that key beside the table's canonical
integers (unit, cutoff, scale, values, mults).  A hit begins with the
bytes a miss writes for its key and holds a table at the job's cutoff and
unit, whose fields alone go to the validating ``SpectrumTable``
constructor.  Entries are written atomically; any other entry (one that
does not parse, holds an invalid table, another field or another key) is a
miss, rewritten.
"""

import argparse
import json
import os
import re
import sys
from functools import lru_cache, partial

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
from .rational import fmt, rat, written
from .spectrum import SpectrumTable, _csv, canonical_json


def _split(text: str) -> list:
    return text.split(",") if text else []


def _render(data, out_format: str) -> str:
    """A table, or a report whose rationals are strings already, in
    ``out_format``."""
    if isinstance(data, SpectrumTable):  # to_json, to_csv or to_pretty
        return getattr(data, f"to_{out_format}")()
    if out_format == "json":
        return canonical_json(data)
    if out_format == "csv":
        return _csv(
            ["key", "value"],
            [[k, json.dumps(data[k], sort_keys=True)] for k in sorted(data)],
        )
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@lru_cache(maxsize=None)  # once per process, on the first cached job
def _source_digest() -> str:
    """sha256 over the package's .py files, outside ``__pycache__``, in
    order of their relative paths: each path, its length and its bytes."""
    import hashlib  # only a cached job loads it

    root = os.path.dirname(__file__)
    digest = hashlib.sha256()
    for rel in sorted(
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, _, names in os.walk(root)
        if os.path.basename(folder) != "__pycache__"
        for name in names
        if name.endswith(".py")
    ):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        digest.update(b"%s\0%d\0%s" % (rel.encode(), len(data), data))
    return digest.hexdigest()


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
    import hashlib

    key = {"code": _source_digest(), "job": job}
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
    text = written(canonical_json, {"key": key, "table": _entry(table)})
    os.makedirs(cache, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)  # readers see the old state or the whole entry
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return table


def _run_table(kind, spectrum, unit, ns) -> SpectrumTable:
    """The ``spectrum`` table, in ``unit``, of the ``kind`` descriptor that
    the command's first required option names, at ``--cutoff``."""
    option = _COMMANDS[ns.command][2][0]
    subject = resolve(kind, getattr(ns, option))
    cutoff = rat(ns.cutoff)
    job = {"command": ns.command, option: subject.to_json_dict(),
           "cutoff": fmt(cutoff)}
    return _cached_table(job, cutoff, unit, lambda: spectrum(subject, cutoff))


def _run_branch(ns) -> dict:
    emb = resolve(EmbeddingSpec, ns.embedding)
    result = branch(emb, _split(ns.weight))
    return {
        "embedding": emb.to_json_dict(),
        "weight": list(result.source),
        "terms": [
            {"factors": [list(p) for p in tup], "multiplicity": mult}
            for tup, mult in result.terms
        ],
    }


def _run_gamma(ns) -> dict:
    if ns.gram is not None:
        subject = resolve(Lattice, ns.gram)
    else:
        subject = resolve(GroupSpec, ns.spec)
    gv = gamma_invariants(subject)
    return {
        "kind": gv.kind,
        "dim": gv.dim,
        "entries": [fmt(x) for x in gv.entries],
    }


def _run_scan(ns) -> dict:
    return isolation_scan(
        resolve(NatRedMetric, ns.metric), ns.radius, ns.steps, ns.cutoff
    )


def _run_torus_search(ns) -> dict:
    found = torus_search(
        _split(ns.values), ns.dim, ns.lambda_min, ns.vol_min
    )
    return {
        "count": len(found),
        "tori": [lat.to_json_dict() for lat in found],
    }


def _run_window(ns) -> dict:
    value = finiteness_window(ns.lambda1, ns.vol, ns.dim, ns.const)
    return {"window": fmt(value)}


def _run_validate_embedding(ns) -> dict:
    emb = resolve(EmbeddingSpec, ns.embedding)
    return dict(validate_embedding(emb), embedding=emb.to_json_dict())


def _report_error(exc: Exception, code: int) -> int:
    kind, message = type(exc).__name__, str(exc)
    if code == 3:
        kind, message = "InternalError", f"{kind}: {message}"
    err = {"error": {"type": kind, "message": message}}
    sys.stdout.write(canonical_json(err))
    return code


def run(ns) -> int:
    """Run the parsed job ``ns``, render what its runner returns in
    ``--format``, and map what either raises to an exit code."""
    try:
        result = ns.run(ns)
        text = written(_render, result, ns.fmt)
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
# one is given); a spectrum command's runner is ``_run_table`` with the
# descriptor type, the spectrum function and the unit of its tables
_COMMANDS = {
    "torus-spectrum": (partial(_run_table, Lattice, torus_spectrum,
                               "four-pi-squared"),
                       "flat torus spectrum", ("gram", "cutoff"), ()),
    "group-spectrum": (partial(_run_table, GroupSpec, biinvariant_spectrum,
                               "raw"),
                       "bi-invariant group spectrum", ("spec", "cutoff"), ()),
    "natred-spectrum": (partial(_run_table, NatRedMetric, natred_spectrum,
                                "raw"),
                        "naturally reductive metric spectrum",
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
    # argparse reads a value such as -1/2 or -1,0 as a flag, but not when
    # it is joined to its option, as in --cutoff=-1/2; --help takes none
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if re.match(r"-\d", argv[i]) and flag.startswith("--") and not (
            "=" in flag or "--help".startswith(flag)
        ):
            argv[i - 1 : i + 1] = [f"{flag}={argv[i]}"]
    try:
        ns = _build_parser(command).parse_args(argv)
    except argparse.ArgumentError as exc:
        return _report_error(exc, 1)
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
