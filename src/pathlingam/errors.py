"""Exception types shared across the toolkit.

Every error raised on a documented failure path derives from
:class:`PathLingamError` so callers can distinguish domain failures from
programming mistakes; ``exit_code`` is the CLI's exit status for each.
"""


class PathLingamError(Exception):
    """Base class for all domain errors."""

    exit_code = 2


class ZeroVariance(PathLingamError):
    """A vector that must have positive variance is constant."""

    exit_code = 5


class ZeroVarianceColumn(ZeroVariance):
    """A specific data column is constant; carries the column index."""

    exit_code = 2

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"column {self.index} has zero variance")


class DegenerateCorrelation(PathLingamError):
    """|correlation| is 1, so a regression residual has zero scale."""

    exit_code = 5


class InvalidK(PathLingamError):
    """Neighbor count k outside the valid range 1 <= k < N."""


class CyclicPrior(PathLingamError):
    """Prior orderings put a feature before itself, so no ordering keeps them."""

    exit_code = 3


class GenerationFailed(PathLingamError):
    """The simulator exhausted its rejection-sampling retries."""

    exit_code = 5


class SingularDesign(PathLingamError):
    """Regression design matrix is exactly collinear."""

    exit_code = 5


class NumericOverflow(PathLingamError):
    """A statistic of the data is too large, or too small, for floating
    point."""

    exit_code = 5


class LengthMismatch(PathLingamError):
    """Two sequences that must have equal length do not."""


class TooManyFeatures(PathLingamError):
    """Feature count exceeds an explicit enumeration cap."""

    exit_code = 4


class DegenerateDistribution(PathLingamError):
    """All path lengths are equal; moments are undefined."""

    exit_code = 5


class EmptyTrainingSet(PathLingamError):
    """A predictor was given no training rows."""


class SingleClass(PathLingamError):
    """ROC evaluation needs both labels present."""

    exit_code = 5

