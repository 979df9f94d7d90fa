"""Exception types shared across the package."""


class InstabError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(InstabError, ValueError):
    """Inputs have inconsistent or invalid dimensions."""


class ZeroVectorError(InstabError, ValueError):
    """An operation that requires a nonzero vector received zero."""


class ParseError(InstabError, ValueError):
    """A representation-spec string failed to parse.

    Carries the 0-based position of the offending token in ``pos``.
    """

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class StableVectorError(InstabError):
    """The vector admits no shrinking certificate (it appears stable)."""


class TorusStableError(StableVectorError):
    """0 lies in the hull of the active weights at the identity frame."""


class CertificateError(InstabError, ValueError):
    """A dominance certificate is malformed or inconsistent."""


class NonFiniteError(InstabError, ValueError):
    """An input vector or group element has a NaN or infinite entry."""
