"""Command-line front door.

One logical job per invocation.  Inputs are builtin names, inline JSON, or
file paths; outputs are canonical JSON (sorted keys, rationals as "p/q"
strings), CSV, or aligned pretty text.  Exit codes: 0 success, 2 domain
and certification errors, 1 I/O, parse and usage errors (an unknown or
missing flag); errors go to stdout as a structured error object, never a
stack trace or usage text.  Output bytes depend only on the inputs.

Set LIESPEC_CACHE_DIR to memoize spectrum tables on disk; cached and fresh
runs emit identical bytes.  The cache key is the canonical JSON of the job
together with the package version and the entry schema; each entry stores
that key beside its table, and a read compares it.  Entries are written
atomically, and an entry that does not parse, holds an invalid table or
carries another key is treated as a miss and rewritten.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__, catalog
from .errors import DomainError, LiespecError
from .groups import biinvariant_spectrum
from .isolation import (
    finiteness_window,
    gamma_invariants,
    isolation_scan,
    torus_search,
)
from .lattices import torus_spectrum
from .natred import natred_spectrum
from .rational import fmt, rat
from .spectrum import SpectrumTable, canonical_json


@dataclass
class JobConfig:
    command: str
    options: dict = field(default_factory=dict)
    cutoff: object = None
    fmt: str = "json"
    out: str = None


def _parse_weight(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_values(text: str) -> tuple:
    return tuple(rat(x) for x in text.split(",")) if text else ()


def _jsonable(obj):
    """Recursively turn Fractions and tuples into canonical JSON values."""
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return fmt(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit_table(table: SpectrumTable, out_format: str) -> str:
    if out_format == "json":
        return table.to_json()
    if out_format == "csv":
        return table.to_csv()
    return table.to_pretty()


def _emit_report(obj, out_format: str) -> str:
    data = _jsonable(obj)
    if out_format == "json":
        return canonical_json(data)
    if out_format == "csv":
        lines = ["key,value"]
        flat = data if isinstance(data, dict) else {"result": data}
        for k in sorted(flat):
            lines.append(f"{k},{json.dumps(flat[k], sort_keys=True)}")
        return "\n".join(lines) + "\n"
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _cache_dir():
    return os.environ.get("LIESPEC_CACHE_DIR")


# names the layout of a cache entry; change it when that layout changes
_CACHE_SCHEMA = "liespec-table-entry/2"


def _cached_table(key_obj, builder) -> SpectrumTable:
    cache = _cache_dir()
    if not cache:
        return builder()
    os.makedirs(cache, exist_ok=True)
    key = {"schema": _CACHE_SCHEMA, "version": __version__, "job": key_obj}
    key_text = canonical_json(key)
    digest = hashlib.sha256(key_text.encode()).hexdigest()
    path = os.path.join(cache, digest + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if canonical_json(entry["key"]) == key_text:
            return SpectrumTable.from_json_dict(entry["table"])
    except (FileNotFoundError, ValueError, KeyError, TypeError, DomainError):
        pass  # a miss; a corrupt entry (JSONDecodeError is a ValueError) too
    table = builder()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            entry = {"key": key, "table": table.to_json_dict()}
            fh.write(canonical_json(entry))
        os.replace(tmp, path)  # readers see the old state or the whole entry
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return table


def _run_torus_spectrum(cfg: JobConfig) -> str:
    lat = catalog.resolve_lattice(cfg.options["gram"])
    cutoff = rat(cfg.cutoff)
    table = _cached_table(
        {"op": "torus", "lattice": lat.to_json_dict(), "cutoff": fmt(cutoff)},
        lambda: torus_spectrum(lat, cutoff),
    )
    return _emit_table(table, cfg.fmt)


def _run_group_spectrum(cfg: JobConfig) -> str:
    gs = catalog.resolve_group(cfg.options["spec"])
    cutoff = rat(cfg.cutoff)
    table = _cached_table(
        {"op": "group", "spec": gs.to_json_dict(), "cutoff": fmt(cutoff)},
        lambda: biinvariant_spectrum(gs, cutoff),
    )
    return _emit_table(table, cfg.fmt)


def _run_natred_spectrum(cfg: JobConfig) -> str:
    m = catalog.resolve_metric(cfg.options["metric"])
    cutoff = rat(cfg.cutoff)
    table = _cached_table(
        {"op": "natred", "metric": m.to_json_dict(), "cutoff": fmt(cutoff)},
        lambda: natred_spectrum(m, cutoff),
    )
    return _emit_table(table, cfg.fmt)


def _run_branch(cfg: JobConfig) -> str:
    from .branching import branch

    emb = catalog.resolve_embedding(cfg.options["embedding"])
    weight = _parse_weight(cfg.options["weight"])
    result = branch(emb, weight)
    report = {
        "embedding": emb.to_json_dict(),
        "weight": list(result.source),
        "terms": [
            {"factors": [list(p) for p in tup], "multiplicity": mult}
            for tup, mult in result.terms
        ],
    }
    return _emit_report(report, cfg.fmt)


def _run_gamma(cfg: JobConfig) -> str:
    if cfg.options.get("gram"):
        subject = catalog.resolve_lattice(cfg.options["gram"])
    elif cfg.options.get("spec"):
        subject = catalog.resolve_group(cfg.options["spec"])
    else:
        raise LiespecError("gamma needs --gram or --spec")
    gv = gamma_invariants(subject)
    report = {
        "kind": gv.kind,
        "dim": gv.dim,
        "entries": [fmt(x) for x in gv.entries],
    }
    return _emit_report(report, cfg.fmt)


def _run_scan(cfg: JobConfig) -> str:
    m = catalog.resolve_metric(cfg.options["metric"])
    report = isolation_scan(
        m,
        rat(cfg.options["radius"]),
        int(cfg.options["steps"]),
        rat(cfg.cutoff),
    )
    return _emit_report(report, cfg.fmt)


def _run_torus_search(cfg: JobConfig) -> str:
    found = torus_search(
        _parse_values(cfg.options["values"]),
        int(cfg.options["dim"]),
        rat(cfg.options["lambda_min"]),
        rat(cfg.options["vol_min"]),
    )
    report = {
        "count": len(found),
        "tori": [lat.to_json_dict() for lat in found],
    }
    return _emit_report(report, cfg.fmt)


def _run_window(cfg: JobConfig) -> str:
    value = finiteness_window(
        rat(cfg.options["lambda1"]),
        rat(cfg.options["vol"]),
        int(cfg.options["dim"]),
        rat(cfg.options["const"]),
    )
    return _emit_report({"window": fmt(value)}, cfg.fmt)


def _run_validate_embedding(cfg: JobConfig) -> str:
    from .branching import validate_embedding

    emb = catalog.resolve_embedding(cfg.options["embedding"])
    report = validate_embedding(emb)
    report["embedding"] = emb.to_json_dict()
    return _emit_report(report, cfg.fmt)


_RUNNERS = {
    "torus-spectrum": _run_torus_spectrum,
    "group-spectrum": _run_group_spectrum,
    "natred-spectrum": _run_natred_spectrum,
    "branch": _run_branch,
    "gamma": _run_gamma,
    "scan": _run_scan,
    "torus-search": _run_torus_search,
    "window": _run_window,
    "validate-embedding": _run_validate_embedding,
}


def _report_error(exc: Exception, code: int) -> int:
    err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(canonical_json(err))
    return code


def run(cfg: JobConfig) -> int:
    try:
        text = _RUNNERS[cfg.command](cfg)
    except LiespecError as exc:
        return _report_error(exc, 2)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _report_error(exc, 1)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _report_error(exc, 1)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liespec",
        description=(
            "Exact truncated Laplace spectra of flat tori and compact "
            "Lie groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cutoff=False):
        p.add_argument(
            "--format",
            choices=("json", "csv", "pretty"),
            default="json",
            dest="fmt",
        )
        p.add_argument("--out", default=None)
        if cutoff:
            p.add_argument("--cutoff", required=True)

    p = sub.add_parser("torus-spectrum", help="flat torus spectrum")
    p.add_argument("--gram", required=True)
    common(p, cutoff=True)

    p = sub.add_parser("group-spectrum", help="bi-invariant group spectrum")
    p.add_argument("--spec", required=True)
    common(p, cutoff=True)

    p = sub.add_parser(
        "natred-spectrum", help="naturally reductive metric spectrum"
    )
    p.add_argument("--metric", required=True)
    common(p, cutoff=True)

    p = sub.add_parser("branch", help="restrict an irreducible to a subgroup")
    p.add_argument("--embedding", required=True)
    p.add_argument("--weight", required=True)
    common(p)

    p = sub.add_parser("gamma", help="low-eigenvalue invariant vector")
    p.add_argument("--gram")
    p.add_argument("--spec")
    common(p)

    p = sub.add_parser("scan", help="isospectral neighbor grid scan")
    p.add_argument("--metric", required=True)
    p.add_argument("--radius", required=True)
    p.add_argument("--steps", required=True)
    common(p, cutoff=True)

    p = sub.add_parser(
        "torus-search", help="reconstruct tori from invariant values"
    )
    p.add_argument("--values", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--lambda-min", required=True, dest="lambda_min")
    p.add_argument("--vol-min", required=True, dest="vol_min")
    common(p)

    p = sub.add_parser("window", help="finiteness scale window")
    p.add_argument("--lambda1", required=True)
    p.add_argument("--vol", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--const", required=True)
    common(p)

    p = sub.add_parser(
        "validate-embedding", help="structural embedding checks"
    )
    p.add_argument("--embedding", required=True)
    common(p)

    return parser


def config_from_args(argv) -> JobConfig:
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    cfg = JobConfig(
        command=command,
        cutoff=ns.pop("cutoff", None),
        fmt=ns.pop("fmt"),
        out=ns.pop("out"),
    )
    cfg.options = ns
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = config_from_args(argv)
    except argparse.ArgumentError as exc:
        return _report_error(exc, 1)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
