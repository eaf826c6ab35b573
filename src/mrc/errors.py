"""Exception types shared across the package, and the checks for numeric input."""

import math
import numbers


class MrcError(Exception):
    """Base class for all package errors."""


class ConfigError(MrcError):
    """Invalid configuration: bad parameters, missing files, malformed JSON."""


class GeometryError(MrcError):
    """Invalid surface: non-positive radius, under-resolved quadrature."""


class SolverError(MrcError):
    """Degenerate least-squares system (all singular values truncated)."""


def require_number(name: str, value, kind: type = float):
    """`value` as a `kind` (float or int); ConfigError for a non-number, a bool,
    NaN or an infinity (json reads NaN and Infinity), for float also for an int
    beyond its range, and for int also for a number with a fractional part."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value) and (kind is not int or float(value).is_integer())
    except OverflowError:  # an int beyond the range of a float
        ok = kind is int
    if not ok:
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")
    return kind(value)


def require_point(name: str, value) -> tuple[float, float, float]:
    """`value` as a point (x, y, z) of floats; ConfigError unless it is three numbers."""
    try:
        point = tuple(require_number(name, x) for x in value)
    except (TypeError, ConfigError):
        point = ()
    if len(point) != 3:
        raise ConfigError(f"{name} must be three numbers [x, y, z], got {value!r}")
    return point
