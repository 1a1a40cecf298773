"""Exception types shared across the package.

Argument validation raises ValueError (or the SingularityError subclass when
the input sits exactly on a pole / removable point of a formula).  Iterations
and quadratures that fail to converge raise NumericFailure, which carries the
last iterate so callers can inspect or restart.
"""


class SingularityError(ValueError):
    """Input coincides with a singular point of the requested quantity."""


class NumericFailure(RuntimeError):
    """An iterative scheme did not reach its tolerance.

    Attributes
    ----------
    last : object
        Last iterate (scalar or array) before giving up.
    residual : float
        Residual magnitude at ``last``.
    hint : str
        Suggested remedy (e.g. "double the contour node density").
    """

    def __init__(self, message, last=None, residual=None, hint=""):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.hint = hint
