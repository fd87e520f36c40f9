"""Exception types shared across the package."""


class TriadError(Exception):
    """Base class for all package errors."""


class InputError(TriadError, ValueError):
    """Invalid argument or graph input: bad vertex, missing edge, bad value."""


class ConfigError(InputError):
    """Estimator configuration violates a documented constraint."""


class EdgeListError(TriadError, ValueError):
    """Malformed edge-list text; carries the offending line number when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class StreamUsageError(TriadError, RuntimeError):
    """Pass protocol misuse: nested, unfinished, or inactive passes."""
