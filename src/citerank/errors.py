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
    """A malformed input line.  A parser raises it with the reason alone;
    the reader that knows the file and line (``ingest.stream``,
    ``aggregate.load_store``, the CLI's scores reader) raises a new one
    whose message starts with ``path:line: ``."""
