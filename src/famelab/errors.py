"""Exception types shared across the package, and the type checks config
fields use to raise them.

Every error raised on a documented failure path derives from FamelabError so
callers can catch the whole family at the CLI boundary.
"""

import dataclasses
import numbers


class FamelabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FamelabError, ValueError):
    """An argument violates a documented precondition."""


class NotFoundError(FamelabError, LookupError):
    """A named entity (class id, preset, pool bucket) does not exist."""


class DegeneratePointError(FamelabError, ArithmeticError):
    """A density evaluation underflowed to zero where a finite value is required."""


class TrainingDivergedError(FamelabError, RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class DivergedError(FamelabError, RuntimeError):
    """An ODE trajectory left the finite range mid-integration."""

    def __init__(self, class_id, index, step, message=""):
        self.class_id = class_id
        self.index = index
        self.step = step
        super().__init__(
            message
            or f"trajectory diverged (class={class_id}, index={index}, step={step})"
        )


class MalformedFileError(FamelabError, RuntimeError):
    """A binary artifact failed structural validation."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class MalformedPoolError(MalformedFileError):
    """A failure-pool file failed structural validation."""


class IncompatiblePoolError(FamelabError, RuntimeError):
    """A failure pool does not match the schedule or dimension it is used with."""


class PoolBuildFailedError(FamelabError, RuntimeError):
    """No usable candidates were available when building a failure pool."""


class ScorerFailedError(FamelabError, RuntimeError):
    """An external scorer command failed or produced unusable output."""


class PipelineStageError(FamelabError, RuntimeError):
    """A pipeline stage failed; carries the stage name for the failure marker."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


def check_int(name, value) -> None:
    """Raise InvalidArgumentError unless value is an integer (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def check_real(name, value) -> None:
    """Raise InvalidArgumentError unless value is a real number (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")


def check_class_id(value) -> None:
    """Raise InvalidArgumentError unless value is a class id: an integer in
    [1, 2**31), since 0 is the null token and records store ids as i4."""
    check_int("class id", value)
    if not 1 <= value < 2**31:
        raise InvalidArgumentError(
            f"class id {value} is outside [1, 2**31): 0 is the null token and records store ids as i4"
        )


def check_str(name, value) -> None:
    """Raise InvalidArgumentError unless value is a string."""
    if not isinstance(value, str):
        raise InvalidArgumentError(f"{name} must be a string, got {value!r}")


def check_bool(name, value) -> None:
    """Raise InvalidArgumentError unless value is True or False."""
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be true or false, got {value!r}")


_CHECKS = {"int": check_int, "float": check_real, "str": check_str, "bool": check_bool}


def check_fields(obj) -> None:
    """Check each field of dataclass obj against its annotation, which its
    module leaves a string (`from __future__ import annotations`): an int,
    float, str or bool field gets that type's check, and `X | None` also
    admits None.  Fields of any other type keep their own checks."""
    for f in dataclasses.fields(obj):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind in _CHECKS and not (value is None and optional == "None"):
            _CHECKS[kind](f.name, value)
