"""Exception types shared across the library.

The CLI maps these onto exit codes: malformed input exits 2, a failed
exactness witness exits 3, a failed series identity exits 4.
"""


class BispectralError(Exception):
    """Base class for all library errors."""


class UsageError(BispectralError):
    """Malformed call: bad parameters, mismatched fields, wrong variable."""


class DomainError(BispectralError):
    """Arithmetic outside the domain, e.g. inversion of zero."""


class SpecInvalidError(UsageError):
    """A kernel specification violates a structural condition."""


class UnsupportedInputError(UsageError):
    """Input outside the supported fragment (e.g. poles away from 0)."""


class TruncationError(BispectralError):
    """Series window too small for the requested operation."""


class RankDeficiencyError(BispectralError):
    """Kernel description is linearly dependent."""


class InconsistentSpecError(BispectralError):
    """No operator satisfies the description even after escalation."""


class CertificationError(BispectralError):
    """An exactness witness failed."""


class VerificationError(BispectralError):
    """A series identity failed on its guaranteed window."""


class ShapeError(BispectralError):
    """Operator does not reduce to the required structural form."""
