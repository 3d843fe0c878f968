"""Small validation helpers shared across the library.

These helpers keep argument checking terse and consistent: every public
constructor or function that accepts sizes, probabilities or identifiers uses
them, so error messages look the same everywhere.
"""

from __future__ import annotations

from typing import Optional

from .exceptions import ConfigurationError


def require_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive integer, else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_positive_float(value: float, name: str) -> float:
    """Return ``value`` as float if it is strictly positive, else raise."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if as_float <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return as_float


def require_non_negative_float(value: float, name: str) -> float:
    """Return ``value`` as float if it is >= 0, else raise."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if as_float < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return as_float


def require_probability(value: float, name: str) -> float:
    """Return ``value`` as float if it lies in [0, 1], else raise."""
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not 0.0 <= as_float <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return as_float


def coerce_seed(seed: Optional[int]) -> Optional[int]:
    """Validate an RNG seed: ``None`` or a non-negative integer."""
    if seed is None:
        return None
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError(f"seed must be None or a non-negative integer, got {seed!r}")
    return seed
