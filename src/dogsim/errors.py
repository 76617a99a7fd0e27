"""Exception types the program catches by name.

An argument a function cannot use raises ValueError. A `SimulationError`
subclass exists only where a caller catches it by name: the CLI's exit
codes (`ConfigError`, `DivergenceDetected`, `NonConvergence`), its summary
(`DegenerateParameters`, reported as an unavailable bound) and its
config-error wrapper (the base class).
"""


class SimulationError(Exception):
    """Base class of the exception types below."""


class NonConvergence(SimulationError):
    """An iterative solver exhausted its iteration budget.

    Carries the final residual so callers can report how far off it stopped.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class DegenerateParameters(SimulationError):
    """Bound or learning-rate formula evaluated outside its valid domain."""


class DivergenceDetected(SimulationError):
    """A model entry became non-finite during a run; `round` is 1-based."""

    def __init__(self, round: int):
        super().__init__(f"non-finite model entry at round {round}")
        self.round = round


class ConfigError(SimulationError):
    """Invalid experiment configuration; `line` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
