"""liespec: exact truncated Laplace spectra.

Flat tori, bi-invariant metrics on compact semisimple Lie groups, and
naturally reductive metrics built from a subgroup embedding, all in exact
rational arithmetic.  Every public operation is pure and every public type
is immutable, so results are safe to share across threads and are
reproducible bit for bit.

``import liespec`` loads no layer: each public name is imported from its
home module on first access (PEP 562), so a process that only computes
torus spectra never loads the Lie layers, and one that only computes
bi-invariant spectra never loads the lattices or the branching.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module, under this package, that defines it
_HOMES = {
    "BranchingResult": "branching",
    "EmbeddingSpec": "branching",
    "branch": "branching",
    "embedding_index": "branching",
    "killing_ratio": "branching",
    "validate_embedding": "branching",
    "CertificationError": "errors",
    "DomainError": "errors",
    "InadmissibleMetricError": "errors",
    "LiespecError": "errors",
    "MalformedEmbeddingError": "errors",
    "UnsupportedDimensionError": "errors",
    "GroupSpec": "groups",
    "biinvariant_spectrum": "groups",
    "factor_lambda1": "groups",
    "GammaVector": "isolation",
    "finiteness_window": "isolation",
    "gamma_invariants": "isolation",
    "isolation_scan": "isolation",
    "torus_search": "isolation",
    "Lattice": "lattices",
    "congruent": "lattices",
    "systole": "lattices",
    "torus_lambda1": "lattices",
    "torus_spectrum": "lattices",
    "NatRedMetric": "natred",
    "beta_factors": "natred",
    "containment_check": "natred",
    "natred_spectrum": "natred",
    "normal_quotient_spectrum": "natred",
    "RootSystemData": "rootdata",
    "build": "rootdata",
    "casimir": "rootdata",
    "SpectrumTable": "spectrum",
    "table_distance": "spectrum",
    "weight_diagram": "weights",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    """A public name, imported from its home module on first access and
    bound here, so later lookups skip this function; a submodule, imported;
    anything else, AttributeError."""
    home = _HOMES.get(name)
    if home is None:
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
