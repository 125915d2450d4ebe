"""Exception types shared across the toolkit.

Every error that carries a measured violation exposes it as ``residual`` so callers can
re-threshold without re-running: a failed gate's error carries that gate's residual.
"""

from __future__ import annotations


class KFrameError(Exception):
    """Base class for all toolkit errors."""

    #: stable machine-readable code, used by the CLI report
    code = "error"

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NonFiniteInput(KFrameError):
    code = "non-finite-input"


class ShapeMismatch(KFrameError):
    code = "shape-mismatch"


class RangeNotIncluded(KFrameError):
    code = "range-not-included"


class RankDeficientRestriction(KFrameError):
    code = "rank-deficient-restriction"


class NotKFrame(KFrameError):
    code = "not-k-frame"


class ZeroOperator(KFrameError):
    code = "zero-operator"


class IndexExceedsDimension(KFrameError):
    code = "index-exceeds-dimension"


class NotMinimal(KFrameError):
    code = "not-minimal"


class NotADual(KFrameError):
    code = "not-a-dual"


class NotAnInverse(KFrameError):
    code = "not-an-inverse"


class InadmissiblePerturbation(KFrameError):
    code = "inadmissible-perturbation"


class InvalidBounds(KFrameError):
    code = "invalid-bounds"


class NoRightInverse(KFrameError):
    code = "no-right-inverse"


class NoLeftInverse(KFrameError):
    code = "no-left-inverse"


class HypothesisNotMet(KFrameError):
    code = "hypothesis-not-met"


class NotSemiNormalized(KFrameError):
    code = "not-semi-normalized"


class ConditionViolated(KFrameError):
    code = "condition-violated"


class RestrictionSingular(KFrameError):
    code = "restriction-singular"


class NotARepresentation(KFrameError):
    code = "not-a-representation"


class InternalConsistencyError(KFrameError):
    """Two independent computation routes disagreed. Maps to exit code 3."""

    code = "internal-consistency"


class ParseError(KFrameError):
    """Input file could not be parsed; message carries file/field context."""

    code = "parse-error"


class DimensionMismatch(ParseError):
    code = "dimension-mismatch"

