"""Exception hierarchy, the positive-and-finite field check and CLI exit codes."""

from __future__ import annotations

import math


class VcselNetError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(VcselNetError):
    """Malformed or invalid configuration: parse failures, bad field values."""


class DomainError(VcselNetError, ValueError):
    """Numeric argument outside the valid domain of an operation."""


class InfeasibleError(VcselNetError):
    """Problem has no solution as posed (e.g. more users than access points)."""


class SingularChannelError(VcselNetError):
    """Channel matrix is rank deficient; zero-forcing cannot separate users."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class SweepPointError(VcselNetError):
    """Failure at a specific sweep coordinate; wraps the original error."""

    def __init__(self, message: str, original: BaseException):
        super().__init__(message)
        self.original = original


def require_positive(error: type[VcselNetError], owner, *names: str) -> None:
    """error unless each named field of owner is positive and finite."""
    for name in names:
        value = getattr(owner, name)
        if not 0 < value < math.inf:
            raise error(f"{name} must be positive and finite, got {value!r}")


# CLI exit codes, one category per error class.
EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PRECODING = 4
EXIT_IO = 5
EXIT_DOMAIN = 6


def exit_code_for(err: BaseException) -> int:
    """Map an exception to the documented CLI exit code."""
    if isinstance(err, SweepPointError):
        return exit_code_for(err.original)
    if isinstance(err, ConfigError):
        return EXIT_CONFIG
    if isinstance(err, (InfeasibleError, SingularChannelError)):
        return EXIT_PRECODING
    if isinstance(err, DomainError):
        return EXIT_DOMAIN
    if isinstance(err, OSError):
        return EXIT_IO
    return EXIT_UNEXPECTED
