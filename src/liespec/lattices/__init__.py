from .congruence import congruent
from .enumeration import enumerate_gram, short_vectors, systole
from .lattice import HERMITE_POWER, Lattice, dual, hermite_bound_ok
from .reduction import lll_gram, reduce_with_transform
from .spectra import torus_lambda1, torus_spectrum

__all__ = [
    "HERMITE_POWER",
    "Lattice",
    "congruent",
    "dual",
    "enumerate_gram",
    "hermite_bound_ok",
    "lll_gram",
    "reduce_with_transform",
    "short_vectors",
    "systole",
    "torus_lambda1",
    "torus_spectrum",
]
