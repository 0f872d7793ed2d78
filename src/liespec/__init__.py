"""liespec: exact truncated Laplace spectra.

Flat tori, bi-invariant metrics on compact semisimple Lie groups, and
naturally reductive metrics built from a subgroup embedding, all in exact
rational arithmetic.  Every public operation is pure and every public type
is immutable, so results are safe to share across threads and are
reproducible bit for bit.
"""

__version__ = "0.1.0"

from .branching import (
    BranchingResult,
    EmbeddingSpec,
    branch,
    embedding_index,
    killing_ratio,
    validate_embedding,
)
from .errors import (
    CertificationError,
    DomainError,
    InadmissibleMetricError,
    LiespecError,
    MalformedEmbeddingError,
    UnsupportedDimensionError,
)
from .groups import GroupSpec, biinvariant_spectrum, factor_lambda1
from .isolation import (
    GammaVector,
    finiteness_window,
    gamma_invariants,
    isolation_scan,
    torus_search,
)
from .lattices import (
    Lattice,
    congruent,
    systole,
    torus_lambda1,
    torus_spectrum,
)
from .natred import (
    NatRedMetric,
    beta_factors,
    containment_check,
    natred_spectrum,
    normal_quotient_spectrum,
)
from .rootdata import RootSystemData, build, casimir
from .spectrum import SpectrumTable, table_distance
from .weights import weight_diagram

__all__ = [
    "BranchingResult",
    "CertificationError",
    "DomainError",
    "EmbeddingSpec",
    "GammaVector",
    "GroupSpec",
    "InadmissibleMetricError",
    "Lattice",
    "LiespecError",
    "MalformedEmbeddingError",
    "NatRedMetric",
    "RootSystemData",
    "SpectrumTable",
    "UnsupportedDimensionError",
    "beta_factors",
    "biinvariant_spectrum",
    "branch",
    "build",
    "casimir",
    "congruent",
    "containment_check",
    "embedding_index",
    "factor_lambda1",
    "finiteness_window",
    "gamma_invariants",
    "isolation_scan",
    "killing_ratio",
    "natred_spectrum",
    "normal_quotient_spectrum",
    "systole",
    "table_distance",
    "torus_lambda1",
    "torus_search",
    "torus_spectrum",
    "validate_embedding",
    "weight_diagram",
]
