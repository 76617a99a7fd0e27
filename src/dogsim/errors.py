"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all dogsim errors."""


class DimensionMismatch(SimulationError):
    """Vector or matrix shapes are incompatible."""


class NonConvergence(SimulationError):
    """An iterative solver exhausted its iteration budget.

    Carries the final residual so callers can report how far off it stopped.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class ParseError(SimulationError):
    """Malformed input text; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyDataset(SimulationError):
    """An operation required a non-empty dataset."""


class TooFewPoints(SimulationError):
    """Fewer points than clusters requested."""


class InsufficientData(SimulationError):
    """Dataset too small for the requested node count and horizon."""


class DegenerateParameters(SimulationError):
    """Bound or learning-rate formula evaluated outside its valid domain."""


class DivergenceDetected(SimulationError):
    """A model entry became non-finite during a run; `round` is 1-based."""

    def __init__(self, round: int):
        super().__init__(f"non-finite model entry at round {round}")
        self.round = round


class EmptyRun(SimulationError):
    """A metric was requested on a run with no recorded rounds."""


class ConfigError(SimulationError):
    """Invalid experiment configuration; `line` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
