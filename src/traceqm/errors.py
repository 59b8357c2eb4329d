"""Exception types shared across the workbench.

Every error raised by this package derives from :class:`WorkbenchError`,
so callers can catch the whole family with one clause.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DimensionError(WorkbenchError):
    """Operands have incompatible dimensions."""


class GridError(WorkbenchError):
    """Operands disagree about their grid binding, or a grid is malformed."""


class ZeroVectorError(WorkbenchError):
    """An operation that needs a nonzero vector received (or produced) zero."""


class DegenerateSetError(WorkbenchError):
    """A vector set is linearly dependent beyond the working tolerance."""


class SamplingError(WorkbenchError):
    """A profile function produced non-finite values on the grid."""


class NotHermitianError(WorkbenchError):
    """A matrix failed hermiticity certification."""

    def __init__(self, deviation, bound, detail=""):
        msg = f"hermiticity deviation {deviation:.6e} exceeds bound {bound:.6e}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.deviation = deviation
        self.bound = bound


class StateError(WorkbenchError):
    """A state vector violates a precondition (usually: not normalized)."""


class ConvergenceError(WorkbenchError):
    """The eigenvalue solver failed to converge."""


class LapackError(WorkbenchError):
    """numpy's LAPACK exports no ``?stevd`` or ``?stebz``, which the band solves call."""


class InputError(WorkbenchError):
    """Mismatched or inconsistent inputs to a verification routine."""


class NotCommutingError(WorkbenchError):
    """A family handed to a joint-diagonalization routine does not commute."""

    def __init__(self, pair, deviation):
        super().__init__(
            f"operators {pair[0]} and {pair[1]} do not commute "
            f"(scaled commutator norm {deviation:.6e})"
        )
        self.pair = pair
        self.deviation = deviation


class FunctionDomainError(WorkbenchError):
    """A scalar function produced a non-finite value on the spectrum."""


class DegreeError(WorkbenchError):
    """A polynomial observable exceeds the supported total degree."""


class TruncationError(WorkbenchError):
    """A state leaks into the truncation edge of a finite ladder model."""


class NumericalError(WorkbenchError):
    """A numerical result is too degraded to be meaningful.

    ``value`` and ``bound`` carry the measured quantity and the limit it
    broke, when the failure is a bound check.
    """

    def __init__(self, message, value=None, bound=None):
        super().__init__(message)
        self.value = value
        self.bound = bound


class DegenerateSpectrumError(WorkbenchError):
    """Two outcome values that must be distinct coincide."""


class UsageError(WorkbenchError):
    """Unknown command, flag, or configuration key."""


class ValidationError(WorkbenchError):
    """A configuration value fails validation."""
