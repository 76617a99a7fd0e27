"""Exception types the program catches by name.

An argument a function cannot use raises ValueError, and so does a
formula evaluated where it has no value (`auto_learning_rate`,
`regret_bound`). A type is defined here only where the CLI catches it by
name, as a key of its exit codes: `ConfigError`, `DivergenceDetected` and
`NonConvergence`.
"""


class NonConvergence(Exception):
    """An iterative solver exhausted its iteration budget.

    Carries the final residual so callers can report how far off it stopped.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class DivergenceDetected(Exception):
    """A model entry became non-finite during a run; `round` is 1-based."""

    def __init__(self, round: int):
        super().__init__(f"non-finite model entry at round {round}")
        self.round = round


class ConfigError(Exception):
    """Invalid experiment configuration; `line` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
