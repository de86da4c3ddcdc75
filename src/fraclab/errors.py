"""Exception types shared across the package, the one builder of the
domain, datum, field and kernel config records, which checks their keys,
and the checks of the numbers those records hold."""

import inspect
import math

import numpy as np


class FracLabError(Exception):
    """Base class for all package errors."""


class ParameterError(FracLabError, ValueError):
    """An argument is outside its admissible range."""


class DomainError(FracLabError, ValueError):
    """A point or domain violates an operation's geometric precondition."""


class UnsupportedVariantError(DomainError):
    """The domain variant does not support the requested operation."""


class DivergenceError(FracLabError, ValueError):
    """A far-field integral diverges for the declared growth."""


class InsufficientDataError(FracLabError, ValueError):
    """Too few usable samples to fit."""


class ReliabilityError(FracLabError, RuntimeError):
    """A Monte Carlo run failed its own reliability checks."""


def build_record(what, table, record, tag=None):
    """``make(**args)`` of the ``table`` entry ``(make, keys)`` of the variant
    that ``record`` names under the key ``tag`` (the args are its other keys)
    or, with no tag, as its one key (whose value is the args).  A
    ParameterError names an unknown variant, an arg outside ``keys``, and a
    missing one that ``make`` has no default for."""
    if tag is None:
        if len(record) != 1:
            raise ParameterError(f"the record of a {what} must have exactly "
                                 f"one key, got {list(record)}")
        (name, args), = record.items()
    else:
        args = dict(record)
        name = args.pop(tag, None)
    if name not in table:
        raise ParameterError(f"unknown {what} {name!r}; known: {sorted(table)}")
    make, keys = table[name]
    unknown = sorted(set(args) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown {name} key(s) {unknown}; known: {list(keys)}")
    params = inspect.signature(make).parameters
    missing = [k for k in keys if k not in args and (
        k not in params or params[k].default is inspect.Parameter.empty)]
    if missing:
        raise ParameterError(f"{name} record lacks required key(s) {missing}")
    return make(**args)


class ToleranceWarning(UserWarning):
    """Quadrature failed to meet its target tolerance; the reported
    err_estimate reflects the achieved accuracy."""


def is_real(v):
    """Whether v is a finite real number (a bool, a string or an int beyond
    the float range is not one, though numpy would cast each)."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(
            v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def real_number(what, key, v):
    """v as a float; a ParameterError naming the record's key unless it is
    a finite real number."""
    if not is_real(v):
        raise ParameterError(
            f"{what} {key} must be a finite number, got {v!r}")
    return float(v)


def real_point(what, key, v):
    """v as a 1-D float array; a ParameterError naming the record's key
    unless v is a finite real number or a non-empty list of them."""
    coords = np.atleast_1d(np.asarray(v, dtype=object))
    if coords.ndim != 1 or len(coords) == 0 or not all(map(is_real, coords)):
        raise ParameterError(
            f"{what} {key} must be a point of finite numbers, got {v!r}")
    return coords.astype(float)
