from .congruence import congruent
from .lattice import Lattice, dual, systole
from .spectra import torus_lambda1, torus_spectrum

__all__ = [
    "Lattice",
    "congruent",
    "dual",
    "systole",
    "torus_lambda1",
    "torus_spectrum",
]
