"""Exception types shared across the package."""


class RowTuplesError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(RowTuplesError, ValueError):
    """Input has the wrong shape, dtype, or contains non-finite entries."""


class ToleranceError(RowTuplesError, ValueError):
    """A tolerance configuration field is non-positive or otherwise invalid."""


class DomainError(RowTuplesError, ValueError):
    """A numeric argument lies outside the domain of the requested map."""


class NotHermitianError(RowTuplesError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotCommutingError(RowTuplesError, ValueError):
    """The matrices of a tuple fail to commute beyond tolerance."""


class NotRowContractionError(RowTuplesError, ValueError):
    """The row operator of a tuple fails the contractivity test."""


class NotNilpotentError(RowTuplesError, ValueError):
    """No vanishing degree was found below the nilpotency search cap."""


class NotCyclicError(RowTuplesError, ValueError):
    """The tuple admits no cyclic vector (minimal generator count exceeds one)."""


class ConvergenceError(RowTuplesError, RuntimeError):
    """An iterative computation failed to converge within its budget."""


class WitnessSearchError(RowTuplesError, RuntimeError):
    """A constructed certificate failed its check."""


class HypothesisError(RowTuplesError, ValueError):
    """A theorem hypothesis required by a construction does not hold.

    Carries the name of the failed hypothesis so callers (and the CLI)
    can distinguish inapplicable inputs from genuine numerical failures.
    """

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis not satisfied: {hypothesis}")


class PolynomialParseError(RowTuplesError, ValueError):
    """A polynomial string does not conform to the accepted grammar."""
