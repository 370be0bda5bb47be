"""Exception types shared across the package."""

__all__ = [
    "SpiralPasteError",
    "SchemaError",
    "ScheduleTooShort",
    "ModelInvalid",
]


class SpiralPasteError(Exception):
    """Base class for all library-specific failures."""


class SchemaError(SpiralPasteError):
    """A JSON document does not match the documented input schema."""


class ScheduleTooShort(SpiralPasteError):
    """Some point lies beyond the last odd radius of the given schedule."""


class ModelInvalid(SpiralPasteError):
    """A gluing model violates one of its defining inequalities."""
