"""Type checks for configuration values, shared by the config dataclasses and
the command line.  Each returns the value it accepts and raises a
``ValueError`` naming ``key`` for anything else."""

from __future__ import annotations


def integer(value, key: str) -> int:
    """An int; a bool, a float or anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def real(value, key: str) -> float:
    """A real number as a float; a bool, a string or a collection is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is out of range, got {value!r}") from None


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
