from .congruence import congruent
from .lattice import HERMITE_POWER, Lattice, dual, hermite_bound_ok, systole
from .spectra import torus_lambda1, torus_spectrum

__all__ = [
    "HERMITE_POWER",
    "Lattice",
    "congruent",
    "dual",
    "hermite_bound_ok",
    "systole",
    "torus_lambda1",
    "torus_spectrum",
]
