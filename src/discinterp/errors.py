"""Exception types shared across the package."""

__all__ = [
    "DiscinterpError",
    "PoleOnDomain",
    "TruncationError",
    "UnsupportedSpace",
    "NotHilbert",
    "Divergence",
    "DegenerateNodes",
    "IllConditionedWarning",
]


class DiscinterpError(Exception):
    """Base class for domain and numerical errors raised by this package."""


class PoleOnDomain(DiscinterpError):
    """A Blaschke zero lies on or outside the unit circle."""


class TruncationError(DiscinterpError):
    """A series truncation cannot reach the requested tolerance."""


class UnsupportedSpace(DiscinterpError):
    """The space descriptor is outside the implemented families."""


class NotHilbert(UnsupportedSpace):
    """The operation requires a Hilbert-case space (p = 2)."""


class Divergence(DiscinterpError):
    """A kernel series, Stein sum or coefficient series does not converge within 2^21 terms."""


class DegenerateNodes(DiscinterpError):
    """Interpolation nodes are too close for an accurate answer."""


class IllConditionedWarning(UserWarning):
    """A Gram or Pick matrix is numerically near-singular."""
