"""Exception types shared across the toolkit.

Every error raised on a documented failure path derives from
:class:`PathLingamError` so callers (and the CLI exit-code mapping) can
distinguish domain failures from programming mistakes.
"""


class PathLingamError(Exception):
    """Base class for all domain errors."""


class ZeroVariance(PathLingamError):
    """A vector that must have positive variance is constant."""


class ZeroVarianceColumn(ZeroVariance):
    """A specific data column is constant; carries the column index."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"column {self.index} has zero variance")


class DegenerateCorrelation(PathLingamError):
    """|correlation| is 1, so a regression residual has zero scale."""


class InvalidK(PathLingamError):
    """Neighbor count k outside the valid range 1 <= k < N."""


class CyclicPrior(PathLingamError):
    """Prior orderings imply both (a, b) and (b, a)."""


class PriorUnsatisfiable(PathLingamError):
    """No permutation of the features satisfies the prior."""


class GenerationFailed(PathLingamError):
    """The simulator exhausted its rejection-sampling retries."""


class SingularDesign(PathLingamError):
    """Regression design matrix is exactly collinear."""


class LengthMismatch(PathLingamError):
    """Two sequences that must have equal length do not."""


class TooManyFeatures(PathLingamError):
    """Feature count exceeds an explicit enumeration cap."""


class DegenerateDistribution(PathLingamError):
    """All path lengths are equal; moments are undefined."""


class EmptyTrainingSet(PathLingamError):
    """A predictor was given no training rows."""


class SingleClass(PathLingamError):
    """ROC evaluation needs both labels present."""

