"""Input checks, shared by every constructor and entry point and by the command
line.  Each returns the value it accepts and raises a ``ValueError`` naming
``key`` (or the two qubit counts) for anything else."""

from __future__ import annotations

import math

import numpy as np


def integer(value, key: str, minimum: int | None = None) -> int:
    """An int, at least ``minimum`` when one is given; a bool, a float or
    anything else is refused."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def real(value, key: str) -> float:
    """A real number as a float; a bool, a string or a collection is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is out of range, got {value!r}") from None


def finite(values, key: str, sign: str = "") -> np.ndarray | float:
    """values as a float array (a plain int or float as a float), every entry
    finite and, for ``sign`` "positive" or "nonnegative", of that sign."""
    if type(values) in (int, float):  # a plain number skips numpy's per-call overhead
        array = float(values)
        ok = math.isfinite(array)
    else:
        array = np.asarray(values, dtype=float)
        ok = np.isfinite(array)
    if sign:
        ok &= array > 0 if sign == "positive" else array >= 0
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):  # .all() of a scalar costs microseconds
        raise ValueError(f"{key} must be {sign + ' and ' if sign else ''}finite, got {values!r}")
    return array


def probability(value, key: str) -> float:
    """A real number in [0, 1] as a float; a NaN is refused."""
    rate = real(value, key)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{key} must lie in [0, 1], got {value!r}")
    return rate


def same_qubits(a: int, b: int) -> int:
    """The common qubit count of two operands; unequal counts are refused."""
    if a != b:
        raise ValueError(f"qubit counts differ: {a} vs {b}")
    return a


def text(value, key: str) -> str:
    """A string; anything else is refused."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def boolean(value, key: str) -> bool:
    """True or False; anything else (a string such as "false" too) is refused."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value
