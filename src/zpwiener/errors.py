"""Shared exception types."""


class BudgetError(RuntimeError):
    """A dense table, enumeration, or search exceeds its configured budget."""


class FileFormatError(ValueError):
    """A function or report file failed to parse; the message carries line/field info."""
