"""Exceptions shared across the package."""


class AdmissibilityError(ValueError):
    """An input violates a stated admissibility precondition."""


class FieldError(ValueError):
    """A grid field is unusable for the requested check."""
