"""Exception types shared across the package."""


class SurfelSlamError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(SurfelSlamError):
    """An input violates a documented precondition (non-finite, wrong shape, ...)."""


class OutOfRangeError(SurfelSlamError):
    """A scalar argument lies outside its documented interval."""


class AmbiguousLogarithmError(SurfelSlamError):
    """Rotation angle at or near pi; the logarithm is not unique."""


class MissingSupportError(SurfelSlamError):
    """A timestamp falls outside the spline support or trajectory span."""

    def __init__(self, message, timestamps=None):
        super().__init__(message)
        self.timestamps = list(timestamps) if timestamps is not None else []


class DegenerateGeometryError(SurfelSlamError):
    """Normal equations are rank deficient."""

    def __init__(self, message, null_dimension):
        super().__init__(message)
        self.null_dimension = null_dimension


class NoProgressError(SurfelSlamError):
    """Damped Gauss-Newton could not decrease the cost; carries the best state seen."""

    def __init__(self, message, best_state=None, best_trajectory=None, report=None):
        super().__init__(message)
        self.best_state = best_state
        self.best_trajectory = best_trajectory
        self.report = report
