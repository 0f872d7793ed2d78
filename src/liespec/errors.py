"""Exception taxonomy.

Domain errors (bad mathematical input) are kept separate from I/O errors so
the command line interface can map them to distinct exit codes.  A failed
certification check is a package error too, raised explicitly so that
``python -O`` cannot remove it.
"""


class LiespecError(Exception):
    """Base class for all package errors."""


class DomainError(LiespecError):
    """Input outside the mathematical domain of an operation."""


class InadmissibleMetricError(DomainError):
    """Metric parameters violate an admissibility constraint."""


class MalformedEmbeddingError(DomainError):
    """Restriction data does not describe a subalgebra embedding."""


class UnsupportedDimensionError(DomainError):
    """Operation only implemented up to a stated dimension or rank."""


class CertificationError(LiespecError):
    """A check that certifies a result (completeness, a lemma) failed."""
