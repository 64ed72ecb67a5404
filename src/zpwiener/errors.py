"""Shared exception types."""


class BudgetError(RuntimeError):
    """A dense table, enumeration, or search exceeds its configured budget;
    `knob` is the `ToolConfig` field that raises it, or None."""

    def __init__(self, message: str, knob: str | None = None):
        super().__init__(message)
        self.knob = knob


class FileFormatError(ValueError):
    """A function or report file failed to parse; the message carries line/field info."""
