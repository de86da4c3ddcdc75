"""Exception types shared across the package, and the check of a config
record's keys that raises one."""

import inspect


class FracLabError(Exception):
    """Base class for all package errors."""


class ParameterError(FracLabError, ValueError):
    """An argument is outside its admissible range."""


class SingularityError(FracLabError, ValueError):
    """Evaluation requested at a singular point (e.g. the kernel at 0)."""


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


def check_record_keys(variant, record, make, keys):
    """Raise a ParameterError if the config ``record`` of ``variant``, the
    keyword arguments of ``make(**record)``, has a key outside ``keys`` or
    lacks one that ``make`` requires (has no default for); the error names
    the variant and the offending keys."""
    unknown = sorted(set(record) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown {variant} key(s) {unknown}; known: {list(keys)}")
    params = inspect.signature(make).parameters
    missing = [k for k in keys
               if params[k].default is inspect.Parameter.empty
               and k not in record]
    if missing:
        raise ParameterError(
            f"{variant} record lacks required key(s) {missing}")


class ToleranceWarning(UserWarning):
    """Quadrature failed to meet its target tolerance; the reported
    err_estimate reflects the achieved accuracy."""
