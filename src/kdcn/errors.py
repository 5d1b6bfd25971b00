"""Exception types shared across the pipeline, and the range checks that the
config dataclasses share.

Everything raised on bad data or bad shapes derives from KdcnError so the
CLI can map library failures to a data-error exit code in one place.
"""

import math
import reprlib


class KdcnError(Exception):
    """Base class for all pipeline errors."""


class DimensionError(KdcnError):
    """Operand shapes or lengths are incompatible."""


class SchemaError(KdcnError):
    """A record or triple violates the graph schema."""


class IngestionError(KdcnError):
    """An event record is malformed (carries the record number)."""


class ParseError(KdcnError):
    """A serialized file line cannot be parsed (carries the line number)."""


class CapacityError(KdcnError):
    """A size guard was exceeded (candidate cap, int64 triple keys)."""


class TrainingError(KdcnError):
    """Training produced a non-finite loss or gradient."""


class SamplingError(KdcnError):
    """Negative sampling could not find a corrupted triple."""


class FormatError(KdcnError):
    """A binary file has a bad magic, version, or is truncated."""


class MetricError(KdcnError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class UnknownNameError(KdcnError, KeyError):
    """An item or category name has no entity or metadata."""

    __str__ = Exception.__str__  # the bare message, not KeyError's repr of it


class ConfigError(KdcnError, ValueError):
    """A configuration value is out of range or names an unknown option."""


def require_at_least(config, low: int, *names: str) -> None:
    """Raise ConfigError naming the first of the config's fields that is below low."""
    for name in names:
        value = getattr(config, name)
        if value < low:
            raise ConfigError(f"{type(config).__name__}.{name} must be >= {low}, got {value}")


def require_finite(config, *names: str) -> None:
    """Raise ConfigError naming the first of the config's fields that is not a finite number."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{type(config).__name__}.{name} must be finite, got {value}")


def require_finite_positive(config, *names: str) -> None:
    """Raise ConfigError naming the first of the config's fields that is not a finite number > 0."""
    for name in names:
        value = getattr(config, name)
        if not (0 < value < float("inf")):  # NaN fails every comparison
            raise ConfigError(f"{type(config).__name__}.{name} must be finite and > 0, got {value}")


def cut(text: str) -> str:
    """text for an error message, cut to at most 80 characters."""
    return text if len(text) <= 80 else text[:77] + "..."


def shown(value) -> str:
    """repr(value) for an error message, cut to at most 80 characters.

    reprlib abbreviates a long or deeply nested value before rendering it,
    so a huge rejected value costs no huge string.
    """
    return cut(reprlib.repr(value))
