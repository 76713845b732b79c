"""Exception hierarchy shared by every module.

The split mirrors the CLI exit-code contract: configuration problems exit 1,
data problems exit 2, and anything the OS refuses (missing directories,
permissions) surfaces as OSError and exits 3.
"""

from __future__ import annotations

__all__ = ["CiterankError", "ConfigError", "DataError", "ParseError"]


class CiterankError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(CiterankError):
    """Invalid configuration or usage: bad flag values, mismatched stores."""


class DataError(CiterankError):
    """Input data that cannot be used: malformed, degenerate, inconsistent."""


class ParseError(DataError):
    """A malformed input line, with file and line context when known."""

    def __init__(self, message: str, *, path: str | None = None, line_no: int | None = None):
        self.message = message
        self.path = path
        self.line_no = line_no
        super().__init__(message)

    def __str__(self) -> str:
        if self.path is not None and self.line_no is not None:
            return f"{self.path}:{self.line_no}: {self.message}"
        return self.message
