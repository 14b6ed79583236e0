"""Exception hierarchy.

Every error raised by this package derives from :class:`PoseHarError`. The
three category classes carry the process exit code used by the command line
tool: configuration problems exit 2, data problems exit 3, numerical
divergence exits 4.
"""

from __future__ import annotations


class PoseHarError(Exception):
    exit_code = 1


class ConfigError(PoseHarError):
    exit_code = 2


class DataError(PoseHarError):
    exit_code = 3


class NumericError(PoseHarError):
    exit_code = 4


class MalformedFrame(DataError):
    """Detector frame does not hold exactly 18 keypoint triples."""


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


class EmptySubset(DataError):
    """Every landmark of the subset is persistently missing."""


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
