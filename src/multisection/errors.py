"""Exception hierarchy for the multisection package.

Everything raised on purpose by this package derives from
:class:`MultisectionError`, so callers can catch one type at an API
boundary.  ``DomainError`` additionally subclasses ``ValueError`` because
bad scalar arguments (negative tolerances, N < 2, ...) are ValueErrors in
spirit and much existing code catches ``ValueError`` for that.
"""

from __future__ import annotations


class MultisectionError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MultisectionError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BracketError(MultisectionError):
    """The supplied interval does not bracket a sign change."""


class EvaluationError(MultisectionError):
    """The target function returned NaN or could not be evaluated."""


class NoSignChangeError(MultisectionError):
    """No subinterval of the current partition exhibits a sign change.

    Only :func:`~multisection.solver.multisect_step` raises it, when its
    endpoint values (given or computed) and every node share one sign.
    A solve cannot, even with a stateful f: each chosen right end departs
    from the sign its bracket check saw at the left end.
    """


class ConvergenceError(MultisectionError):
    """An iterative refinement failed to converge within its budget."""


class ClockError(MultisectionError):
    """The timing clock is too coarse for the span being measured."""


class DegenerateError(MultisectionError):
    """A fit was requested on data with no usable spread."""


class FitError(MultisectionError):
    """A fitted cost model came out non-physical (m <= 0 or c <= 0).

    Attributes
    ----------
    samples:
        The timing samples that were fitted, so the measurement outlives
        the failed fit.
    """

    def __init__(self, message: str, *, samples: tuple = ()):
        super().__init__(message)
        self.samples = samples


class RangeError(MultisectionError):
    """A scan range does not include a required point."""


class BoundViolation(MultisectionError):
    """An observed error exceeded the guaranteed convergence bound.

    Attributes
    ----------
    iteration:
        1-based iteration index at which the violation occurred.
    observed:
        The measured error at that iteration.
    allowed:
        The bound (plus quantization allowance) that was exceeded.
    """

    def __init__(self, message: str, *, iteration: int = 0,
                 observed: float = float("nan"), allowed: float = float("nan")):
        super().__init__(message)
        self.iteration = iteration
        self.observed = observed
        self.allowed = allowed
