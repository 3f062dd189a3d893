"""Exception types shared across the library."""


class SliceFockError(Exception):
    """Base class for library-specific failures."""


class TruncationError(SliceFockError):
    """Series tail cannot be brought under tolerance at the degree cap."""


class IntegrandOverflowError(SliceFockError):
    """A quadrature integrand produced a non-finite sample, or a nonzero
    value lies outside the normal float range."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NotInSpaceError(SliceFockError):
    """f is not in the weighted space: its order-2 type is at least alpha / 2,
    so the weighted integrand does not decay."""


class RefinementError(SliceFockError):
    """A norm moved by more than the refinement tolerance when the grid was
    refined: the grid does not resolve the integral."""


class ConditioningError(SliceFockError):
    """A least-squares design or Gram matrix is too ill-conditioned to solve
    reliably; ``condition`` is its normal-equations condition number."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class SolverError(SliceFockError):
    """Iterative minimization did not converge; ``best`` carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
