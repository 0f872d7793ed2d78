"""Exception taxonomy.

Domain errors (bad mathematical input) are kept separate from I/O errors so
the command line interface can map them to distinct exit codes.  Input
errors, a kind of domain error, mark outside text that does not parse:
descriptor JSON of the wrong shape, or a value that is not a rational.  A
failed certification check is a package error too, raised explicitly so
that ``python -O`` cannot remove it.
"""


class LiespecError(Exception):
    """Base class for all package errors."""


class DomainError(LiespecError):
    """Input outside the mathematical domain of an operation."""


class InputError(DomainError):
    """Outside text that does not parse: a value that is not a rational, a
    non-string where a string belongs, a non-sequence where a sequence
    belongs, or descriptor JSON of the wrong shape (not an object, a
    missing key)."""


class InadmissibleMetricError(DomainError):
    """Metric parameters violate an admissibility constraint."""


class MalformedEmbeddingError(DomainError):
    """Restriction data does not describe a subalgebra embedding."""


class UnsupportedDimensionError(DomainError):
    """Operation only implemented up to a stated dimension or rank."""


class CertificationError(LiespecError):
    """A check that certifies a result (completeness, a lemma) failed."""
