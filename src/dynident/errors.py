"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`DynidentError` so callers can
catch toolkit failures without swallowing programming errors.  Validation
problems (bad arguments, bad config) are kept distinct from numeric/runtime
failures because the command line maps them to different exit codes.
"""

from __future__ import annotations

import numbers


class DynidentError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(DynidentError, ValueError):
    """An argument violates a documented precondition (shape, count, range)."""


def require_int(value, name: str) -> int:
    """``value`` as an ``int``; Python and numpy integers pass, while bools,
    floats (even integral ones) and anything else raise
    :class:`InvalidArgumentError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name}: expected an integer, got {value!r}")
    return int(value)


class ConfigError(DynidentError, ValueError):
    """A run configuration is malformed; the message names the offending key."""


class NumericDomainError(DynidentError, ArithmeticError):
    """A numeric operation left its valid domain (non-finite values, etc.)."""


class DivergenceError(NumericDomainError):
    """An integrated state exceeded the overflow guard.

    Attributes
    ----------
    time : float
        First grid or sub-step time at which the guard tripped.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = float(time)


class UnsupportedOperationError(DynidentError):
    """The requested operation does not apply to this system (e.g. closed form, nonlinear field)."""


class IllConditionedError(NumericDomainError):
    """A linear solve was refused because the Gram matrix is near-singular."""


class EstimationFailureError(DynidentError):
    """No usable estimate could be produced (e.g. every integration diverged)."""


class FileFormatError(DynidentError):
    """An input file is not in the format its loader reads (e.g. truncated).

    The message names the file; the command line reports it as an I/O error.
    """


class DegenerateLabelsError(InvalidArgumentError):
    """A classification target contains a single class."""


class TrainingDivergedError(DynidentError):
    """Training produced a non-finite loss; carries where it happened."""

    def __init__(self, message: str, epoch: int, step: int, components: dict):
        super().__init__(message)
        self.epoch = int(epoch)
        self.step = int(step)
        self.components = dict(components)
