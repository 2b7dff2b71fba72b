"""Exception hierarchy shared across the package, the type checks for config, model and flag values, and the JSON form of a result.

CLI exit-code mapping: InputError (and subclasses) -> 2,
NumericalConsistencyError -> 3.
"""

import math
import numbers
from dataclasses import fields
from functools import partial


class InputError(ValueError):
    """Invalid argument, config, or file content."""


class UnsupportedError(InputError):
    """Operation not defined for this kernel/model family."""


class NumericalConsistencyError(RuntimeError):
    """Computed quantities violate an internal invariant beyond tolerance.

    Distinguishes genuine corruption (e.g. a Gram matrix far from PSD) from
    ordinary floating-point noise, which is clamped silently.
    """


def shown(value) -> str:
    """repr(value) for an error message, cut to its first 80 characters when longer, so that a
    whole dataset or model given where one field belongs does not flood stderr."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def config_int(value, field: str, minimum: int | None = None) -> int:
    """A size or seed read from a config: an int or an integral float, at least `minimum`.

    Booleans, fractional or non-finite floats, strings, null and containers
    raise InputError rather than being truncated or failing later.
    """
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise InputError(f"{field} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise InputError(f"{field} must be >= {minimum}, got {shown(value)}")
    return int(value)


def config_ints(values, field: str, minimum: int | None = None) -> tuple:
    """A nonempty JSON list of sizes or seeds, each checked by `config_int`."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{field} must be a list of integers, got {shown(values)}")
    if not values:
        raise InputError(f"{field} must not be empty")
    return tuple(config_int(v, field, minimum) for v in values)


def config_float(
    value, field: str, above: float | None = None, minimum: float | None = None, below: float | None = None, maximum: float | None = None,
) -> float:
    """A real number read from a config: an int or a finite float, greater than `above`, at least `minimum`, less than `below`, at most `maximum`.

    Booleans, NaN, infinities, strings, null and containers raise InputError
    rather than failing later with a traceback.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InputError(f"{field} must be a finite number, got {shown(value)}")
    if above is not None and not value > above:
        raise InputError(f"{field} must be > {above}, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise InputError(f"{field} must be >= {minimum}, got {shown(value)}")
    if below is not None and not value < below:
        raise InputError(f"{field} must be < {below}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise InputError(f"{field} must be <= {maximum}, got {shown(value)}")
    return float(value)


def config_floats(
    values, field: str, above: float | None = None, minimum: float | None = None, below: float | None = None, maximum: float | None = None,
) -> tuple:
    """A nonempty JSON list of real numbers, each checked by `config_float`."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{field} must be a list of numbers, got {shown(values)}")
    if not values:
        raise InputError(f"{field} must not be empty")
    return tuple(config_float(v, field, above, minimum, below, maximum) for v in values)


# a kernel width w whose square is a finite, positive, normal float, as the kernels divide by w^2:
# the one rule for every width, read from a config or derived by `HilbertKernel.with_width`
config_width = partial(config_float, minimum=2.0**-511, below=2.0**512)


def fields_json(result, skip=()) -> dict:
    """The fields of a dataclass as a JSON object, tuples as lists, leaving out those named in `skip`."""
    values = {f.name: getattr(result, f.name) for f in fields(result) if f.name not in skip}
    return {name: list(value) if isinstance(value, tuple) else value for name, value in values.items()}
