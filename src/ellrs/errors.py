"""Exception hierarchy for the ellrs package."""


class EllrsError(Exception):
    """Base class for all library-specific errors."""


class NonconvergentSeries(EllrsError):
    """Theta series could not be summed to tolerance within the term cap."""


class PoleAtLatticePoint(EllrsError):
    """An argument landed on (or too close to) a pole of the requested kernel."""


class DegenerateWeights(EllrsError):
    """Weight components collide modulo the lattice; intertwiners degenerate."""


class NearSingular(EllrsError):
    """Matrix inversion refused: estimated condition number above threshold.  draws holds
    the flat indices of every refused matrix of a stack ([0] for a single matrix)."""

    def __init__(self, message: str, draws=()):
        super().__init__(message)
        self.draws = draws


class NoConvergence(EllrsError):
    """Newton iteration exhausted its multistart budget without converging: best_residual
    is the least max_k |r_k|/|t_k| reached over all attempts, attempts the starts tried."""

    def __init__(self, message: str, best_residual: float | None = None,
                 attempts: int | None = None):
        super().__init__(message)
        self.best_residual, self.attempts = best_residual, attempts


class DegenerateSolution(EllrsError):
    """A root finder returned weights that violate genericity."""


class PathThroughZero(EllrsError):
    """An argument of the log-theta antiderivative lies at (or too close to) a theta zero."""
