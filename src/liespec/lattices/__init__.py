from .congruence import congruent
from .enumeration import enumerate_gram, systole
from .lattice import HERMITE_POWER, Lattice, dual, hermite_bound_ok
from .reduction import lll_gram
from .spectra import torus_lambda1, torus_spectrum

__all__ = [
    "HERMITE_POWER",
    "Lattice",
    "congruent",
    "dual",
    "enumerate_gram",
    "hermite_bound_ok",
    "lll_gram",
    "systole",
    "torus_lambda1",
    "torus_spectrum",
]
