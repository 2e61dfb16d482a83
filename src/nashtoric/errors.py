"""Typed errors with stable machine-readable codes.

Every error the library raises on bad input carries a ``code`` string that the
CLI reports verbatim, so scripts can branch on it without parsing messages.
"""


class ToricError(Exception):
    """Base class for all library errors."""

    code = "internal-error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class MalformedInputError(ToricError):
    """Input document is not structurally valid."""

    code = "malformed-document"


class DimensionError(ToricError):
    """Vectors of inconsistent length, or dimension < 1."""

    code = "dimension-mismatch"


class CharacteristicError(ToricError):
    """Characteristic is not zero and not a prime."""

    code = "composite-characteristic"


class NotPointedError(ToricError):
    """Cone contains a line, so it cannot carry a pointed semigroup."""

    code = "non-pointed"


class NotFullDimensionalError(ToricError):
    """Cone does not span the ambient space."""

    code = "not-full-dimensional"


class NotFullLatticeError(ToricError):
    """Semigroup generators span a proper sublattice of Z^d."""

    code = "not-full-lattice"


class FormatError(ToricError):
    """Requested output format cannot render this payload."""

    code = "unsupported-format"
