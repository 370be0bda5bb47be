"""Exception types shared across the package."""


class SpiralPasteError(Exception):
    """Base class for all library-specific failures."""


class SchemaError(SpiralPasteError):
    """A JSON document does not match the documented input schema."""


class DegenerateTriple(SpiralPasteError):
    """Two of the three points handed to a flat-triple check coincide."""


class ScheduleTooShort(SpiralPasteError):
    """Some point lies beyond the last odd radius of the given schedule."""


class CoverageViolated(SpiralPasteError):
    """The ray family cannot realise every choice at the requested level."""


class NotARay(SpiralPasteError):
    """The supplied points fail the metric-ray preconditions."""


class ModelInvalid(SpiralPasteError):
    """A gluing model violates one of its defining inequalities."""


class DimensionTooLarge(SpiralPasteError):
    """Norming-functional construction is capped at 3-dimensional subspaces."""


class NetTooCoarse(SpiralPasteError):
    """Sphere net failed verification even after refinement."""
