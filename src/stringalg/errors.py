"""Exception hierarchy shared by the whole library.

The CLI maps these onto exit codes: format/shape problems are "invalid
input" (2), failed certifications are (3), exhausted caps are (4).
"""


class StringAlgError(Exception):
    """Base class for all library errors."""


class FormatError(StringAlgError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QuiverFormatError(FormatError):
    """Malformed quiver file."""


class ElementFormatError(FormatError):
    """Malformed element expression or map file."""


class MatrixFormatError(FormatError):
    """Malformed polynomial-matrix file."""


class InvalidPresentationError(StringAlgError):
    """Operation requires a valid (locally) string presentation."""


class ShapeError(StringAlgError):
    """The presentation does not have the shape required by an operation."""


class CertificationError(StringAlgError):
    """A result failed its exact certification, such as an endomorphism
    failing one of the homomorphism identities."""


class InvariantError(CertificationError):
    """An internal invariant check failed; names the stage it failed in."""

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class DerivationError(StringAlgError):
    """A derivation assignment violates its defining conditions."""


class NotAUnitError(StringAlgError):
    """Element has no two-sided inverse; names the failing component."""


class NotInvertibleError(StringAlgError):
    """Polynomial matrix has no inverse over the polynomial ring."""

    def __init__(self, message, determinant=None):
        self.determinant = determinant
        super().__init__(message)


class CapExceededError(StringAlgError):
    """An iteration cap was exhausted (e.g. a non-nilpotent derivation)."""


class DecompositionError(StringAlgError):
    """The decomposition pipeline hit a structural violation; the input is
    not an automorphism of the presented algebra."""
