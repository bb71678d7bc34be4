"""Exception types shared across the package, and the integer, real and real-vector argument rules."""

import math

import numpy as np


class SparseJLError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SparseJLError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConstraintViolation(SparseJLError, ValueError):
    """A named precondition (e.g. a theorem validity constraint) fails."""


class DimensionMismatch(SparseJLError, ValueError):
    """Vector/matrix shapes are incompatible."""


class BudgetError(SparseJLError, RuntimeError):
    """An exact enumeration would exceed its configured budget."""


class FormatVersionError(SparseJLError, ValueError):
    """A serialized matrix declares an unsupported format version."""


class TruncatedStreamError(SparseJLError, ValueError):
    """A serialized matrix byte stream is shorter or longer than its header implies."""


class MatrixInvariantError(SparseJLError, ValueError):
    """A matrix, built by hand or decoded from a file, violates a structural invariant."""


def _shown(value) -> str:
    """``repr(value)``, or the digit count of an int too long for ``repr``."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        size = abs(value)
        digits = int(size.bit_length() * math.log10(2)) + 1
        if 10 ** (digits - 1) > size:  # the estimate from the bit length is one too high
            digits -= 1
        return f"an integer of {digits} digits"


def check_int(name: str, value, low: int, high: int | None = None, error=DomainError) -> int:
    """``int(value)`` for an ``int`` or numpy integer in [low, high] (no bound
    if ``high`` is None); ``bool``, floats (even 2.0) and all else raise ``error``.

    The message names the argument, the range and the value.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
        if low <= number and (high is None or number <= high):
            return number
    if high is None:
        span = f">= {low}"
    else:
        span = f"in [{low}, " + ("2^64)" if high == (1 << 64) - 1 else f"{high}]")
    raise error(f"{name} must be an integer {span}, got {_shown(value)}")


def _bound_text(bound: float) -> str:
    """A range end as text: 6 significant digits, or 1/k where that is exact and they are not."""
    text = f"{bound:.6g}"
    return f"1/{round(1 / bound)}" if float(text) != bound and (1 / bound).is_integer() else text


def check_real(
    name: str, value, low: float, high: float, *, low_open: bool = True, high_open: bool = True, error=DomainError
) -> float:
    """``float(value)`` for an ``int``, ``float`` or numpy integer or floating
    scalar in the range from ``low`` to ``high``, each end open unless
    ``low_open`` or ``high_open`` is False; ``bool``, arrays (even 0-d),
    strings, ``None``, NaN and out-of-range values raise ``error``.  An
    infinite end is left open, so every accepted value is finite.

    The message names the argument, the range and the value, e.g.
    ``eps must be finite and in (0, 1), got 2.0``.
    """
    if type(value) is float:  # tested first: psi runs this per grid point
        number = value
    elif isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.nan
    else:
        number = math.nan
    if (low < number if low_open else low <= number) and (number < high if high_open else number <= high):
        return number
    ends = ("(" if low_open else "[") + f"{_bound_text(low)}, {_bound_text(high)}" + (")" if high_open else "]")
    span = {"(-inf, inf)": "finite", "(0, inf)": "positive and finite", "[0, inf)": "finite and >= 0"}
    raise error(f"{name} must be {span.get(ends, 'finite and in ' + ends)}, got {_shown(value)}")


def check_real_vector(name: str, value) -> np.ndarray:
    """``value`` as a 1-D float64 array; anything but a flat sequence of real
    numbers raises DomainError.

    Nested, ragged, complex, boolean, string and ``None`` input is rejected,
    not coerced.  Entries are not checked for finiteness.  The message names
    the argument.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise DomainError(f"{name} must be a 1-D sequence of real numbers, got a ragged sequence") from None
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise DomainError(
            f"{name} must be a 1-D sequence of real numbers, got shape {arr.shape} and dtype {arr.dtype}"
        )
    return arr.astype(np.float64, copy=False)
