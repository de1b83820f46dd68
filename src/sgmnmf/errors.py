"""Exception taxonomy shared by all sgmnmf modules."""


class SgmnmfError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(SgmnmfError):
    """A matrix is numerically singular: |det| <= linalg.RTOL x the product of its column norms.

    `index` is the offending matrix's position in the flattened batch, or
    its frequency bin in errors from the optimizer; None when unknown.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DimensionMismatchError(SgmnmfError):
    """An array has the wrong shape, or operands have inconsistent shapes."""


class EmptyInputError(SgmnmfError):
    """An input signal has no samples."""


class UnsupportedFormatError(SgmnmfError):
    """A WAV file uses an encoding outside PCM16 / IEEE-float32."""


class CorruptHeaderError(SgmnmfError):
    """A WAV file header is truncated or malformed."""


class NonFiniteError(SgmnmfError):
    """An input sample or a computed value is NaN/Inf."""


class ConfigError(SgmnmfError, ValueError):
    """A setting is invalid, in a document or a constructor; message names the field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def check_min(owner, names, minimum, strict=False, prefix=""):
    """ConfigError naming the first of owner's fields below minimum (at or below it if strict)."""
    for name in names:
        val = getattr(owner, name)
        if val < minimum or strict and val == minimum:
            bound = ">" if strict else ">="
            raise ConfigError(f"{prefix}{name}", f"must be {bound} {minimum}, got {val}")


class ZeroReferenceError(SgmnmfError):
    """A metric reference signal is identically zero."""


class TooManySourcesError(SgmnmfError):
    """Exhaustive permutation alignment is limited to 6 sources."""
