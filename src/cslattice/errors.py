"""Exception types shared across the solver modules."""


class ConvergenceError(RuntimeError):
    """An iterative process failed to reach its tolerance.

    Carries whatever partial state the caller may want to inspect:
    ``best`` (best iterate found), ``residual`` (its residual norm),
    ``trace`` (a solve's list of scheme.TraceStep rows), ``partial``
    (completed sub-results).
    """

    def __init__(self, message, *, best=None, residual=None, trace=None, partial=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.trace = trace
        self.partial = partial


class SchemeIntegrityError(RuntimeError):
    """A structural guarantee of the monotone scheme was violated numerically."""

    def __init__(self, message, *, trace=None):
        super().__init__(message)
        self.trace = trace


class AnalysisError(ValueError):
    """A post-processing step has no usable data (e.g. an empty fit window)."""


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""
