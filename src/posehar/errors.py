"""Exception hierarchy, and :func:`check_settings`, the one type rule of settings.

Every error raised by this package derives from :class:`PoseHarError`. The
three category classes carry the process exit code used by the command line
tool: configuration problems exit 2, data problems exit 3, numerical
divergence exits 4.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


class PoseHarError(Exception):
    exit_code = 1


class ConfigError(PoseHarError):
    exit_code = 2


class DataError(PoseHarError):
    exit_code = 3


class NumericError(PoseHarError):
    exit_code = 4


class MalformedFrame(DataError):
    """Sample coordinates or presence flags of the wrong shape, or no frame."""


class ParseError(DataError):
    """Unreadable record; the message carries the file and line location."""


class UnknownLabel(DataError):
    """Label not declared in the manifest vocabulary."""


class EmptySequence(DataError):
    """No frames survived the frame-drop rules."""


class AbsentRoot(DataError):
    pass


class AbsentHip(DataError):
    """Neither hip is available as the scale reference."""


class InsufficientData(DataError):
    """Too few vectors to fit the requested model."""


class MissingLibrary(DataError):
    """Advanced embedding requires a library for every action."""


class NonFiniteInput(DataError):
    """A classifier input series holds a nan or inf value."""


class ShapeMismatch(ConfigError):
    """Input does not match the configured channel layout."""


class TooFewSamples(DataError):
    pass


class NonFiniteLoss(NumericError):
    pass


class Diverged(NumericError):
    """Training produced non-finite parameters or loss."""


# The types a settings field takes, by its annotation; a bool is no number.
_TYPES = {"int": (int, np.integer), "float": (int, np.integer, float, np.floating),
          "bool": (bool, np.bool_), "str": (str,)}


def is_integer(value) -> bool:
    """A Python or numpy integer; true/false is no number."""
    return isinstance(value, _TYPES["int"]) and not isinstance(value, bool)


def field_value(name: str, annotation: str, value):
    """``value`` as a plain Python scalar, under the rule of :func:`check_settings`."""
    kinds = _TYPES.get(annotation)
    if kinds is None:
        return value
    if not isinstance(value, kinds) or (isinstance(value, bool) and annotation != "bool"):
        raise TypeError(f"{name} must be {annotation}, got {value!r}")
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name in ("seed", "rng_seed", "actor_seed") and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_settings(settings) -> None:
    """The type rule of every settings dataclass, by field annotation: an
    ``int`` is a Python or numpy integer, never a bool; a ``float`` such an
    integer or a finite float; a ``bool`` a Python or numpy bool; a ``str``
    a str. A wrong type is a TypeError; a non-finite float or a negative
    ``seed``, ``rng_seed`` or ``actor_seed`` is a ValueError.
    Values are stored as plain Python scalars, so settings serialize to JSON."""
    for f in fields(settings):
        value = field_value(f.name, f.type, getattr(settings, f.name))
        object.__setattr__(settings, f.name, value)
