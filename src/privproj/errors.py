"""Exception hierarchy.

Two branches matter to callers: ``InputError`` (bad arguments, files or
configuration; CLI exit code 2) and ``NumericalError`` (a computation that
was attempted but failed; CLI exit code 1).
"""

import numbers

import numpy as np

__all__ = [
    "PrivprojError", "InputError", "NumericalError",
    "NotPositiveDefinite", "NoConvergence", "RankDeficient",
    "InvalidK", "LengthMismatch", "EmptyClass", "WeightMismatch",
    "DimensionMismatch", "EmptyTrainClass", "ParseError", "UnknownCategory",
]


class PrivprojError(Exception):
    pass


def is_integer(value) -> bool:
    """Whether value equals an int and is not a bool: ints, numpy integers
    and integral floats pass; bools, None, NaN, inf and strings do not."""
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def is_real(value) -> bool:
    """Whether value is a real number and not a bool: ints, floats and
    numpy numbers pass, NaN and inf too; bools, None and strings do not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_tuple(values, name: str) -> tuple:
    """values as a tuple. A string, which would split into characters, or a
    value that is not iterable is an InputError."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise InputError(f"{name} must be a sequence, got {values!r}")
    return tuple(values)


def as_floats(values, name: str) -> tuple[float, ...]:
    """`as_tuple` of real numbers (see `is_real`), as floats."""
    values = as_tuple(values, name)
    if not all(map(is_real, values)):
        raise InputError(f"{name} must hold numbers, got {values!r}")
    return tuple(map(float, values))


class InputError(PrivprojError):
    """Invalid input, configuration, or file content."""


class NumericalError(PrivprojError):
    """A numerical procedure failed on otherwise valid input."""


class NotPositiveDefinite(NumericalError):
    """Cholesky pivot fell below the positive-definiteness threshold.

    Usually means the pencil denominator is numerically singular and the
    ridge term needs to be increased.
    """


class NoConvergence(NumericalError):
    """Eigensolver did not converge within the sweep limit."""


class RankDeficient(NumericalError):
    """Orthonormalization (QR) found a column numerically dependent on the
    columns before it."""


class InvalidK(InputError):
    """Requested subspace dimension is out of range."""


class LengthMismatch(InputError):
    """Label vector length does not match the sample count."""


class EmptyClass(InputError):
    """A class id in the declared range has no samples."""


class WeightMismatch(InputError):
    """Privacy weight list does not match the privacy task list."""


class DimensionMismatch(InputError):
    """Feature dimensions (or label spaces) of two inputs differ."""


class EmptyTrainClass(InputError):
    """Training data lacks samples for one of the declared classes."""


class ParseError(InputError):
    """A CSV or schema file could not be parsed; message carries row/column."""


class UnknownCategory(InputError):
    """A categorical value is not listed in the column schema."""
