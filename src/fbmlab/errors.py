"""Shared exception and warning types.

Errors distinguish precondition violations (bad arguments), hypothesis
violations (inputs outside the range a formula is valid for) and runtime
failures (blow-up, lost coverage) so callers can map them to exit codes
without string matching.
"""

import os


class FbmLabError(Exception):
    """Base class for all package errors."""


class ParameterError(FbmLabError, ValueError):
    """An argument violates a documented precondition."""


def require_memory(needed: int, what: str) -> None:
    """ParameterError, naming the bytes, when `needed` bytes exceed physical memory.

    Called before an allocation whose size an input sets, so an input that
    cannot fit fails with exit code 2 instead of a MemoryError.
    """
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ParameterError(f"{what} needs at least {needed:,} bytes, more than "
                             f"the {physical:,} bytes of physical memory")


class HypothesisError(FbmLabError, ValueError):
    """Inputs lie outside the hypothesis range of the formula requested."""


class CoverageError(FbmLabError, RuntimeError):
    """Too much occupation mass escaped the spatial box for the result to be trusted."""


class ResolutionError(FbmLabError, ValueError):
    """Grid spacing is too coarse to resolve the requested kernel or field."""


class InsufficientDataError(FbmLabError, ValueError):
    """Not enough scales or samples to form the requested estimate."""


class BlowUpError(FbmLabError, RuntimeError):
    """A solution path left the configured stability region.

    Attributes
    ----------
    count : int or None
        Number of affected paths when raised for an ensemble.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class ClampWarning(RuntimeWarning):
    """A singular field was evaluated at its singular point and clamped."""


class IntegrabilityWarning(RuntimeWarning):
    """A quadrature value kept growing under local refinement."""
