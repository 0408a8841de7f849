"""Exception types shared across the toolkit.

Every error raised on purpose derives from CausalignError so callers (and the
CLI) can separate expected failures from bugs. Input-shaped problems map to
exit code 2 at the CLI, mid-run stage failures to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "CausalignError",
    "StructuralInputError",
    "MoveInfeasibleError",
    "DegreeCapError",
    "ConfigError",
    "NumericalError",
    "InputQualityError",
    "UndefinedMetricError",
    "DataFormatError",
    "StageError",
]


class CausalignError(Exception):
    """Base class for all errors raised by this package."""


class StructuralInputError(CausalignError):
    """A matrix or graph argument violates a structural precondition
    (not square, nonzero diagonal, non-binary entries, cyclic, ...)."""


class MoveInfeasibleError(CausalignError):
    """An edge move cannot be applied to the given DAG."""


class DegreeCapError(CausalignError):
    """A node's in-degree exceeds the regressor's max_in_degree cap."""


class ConfigError(CausalignError):
    """A configuration value is missing, malformed, or inconsistent."""


class NumericalError(CausalignError):
    """A numeric computation left the supported regime (non-finite
    intermediate, singular system that the ridge term should have covered)."""


class InputQualityError(CausalignError):
    """Input data is structurally fine but unusable (non-finite features,
    NaN columns)."""


class UndefinedMetricError(CausalignError):
    """A metric is undefined for the given inputs (single-class truth)."""


class DataFormatError(CausalignError):
    """A file on disk failed to parse; message carries line/column info."""


class StageError(CausalignError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
