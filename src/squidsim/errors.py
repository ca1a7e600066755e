"""Exception types shared across the package."""


class SquidSimError(Exception):
    """Base class for all squidsim errors."""


class ParameterError(SquidSimError, ValueError):
    """A physical parameter or operator is outside its valid domain."""


class TruncationError(SquidSimError):
    """The requested state cannot be represented in the truncated basis."""


class GridResolutionError(SquidSimError):
    """A spatial grid is too coarse or does not cover the state support."""


class DegeneracyError(SquidSimError):
    """Two states that must be distinct are (numerically) parallel."""


class StepSizeError(SquidSimError):
    """The integrator step is too large for the requested tolerances."""


class ConfigError(SquidSimError):
    """A configuration file or key is invalid."""


class PositivityWarning(UserWarning):
    """A propagated density matrix developed a negative eigenvalue."""
