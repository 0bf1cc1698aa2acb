"""Exception types shared across the package."""
from __future__ import annotations


class IdealGamesError(Exception):
    """Base class for all package-specific errors."""


class OutsideFragment(IdealGamesError):
    """Set expression is not symbolically decidable for the requested ideal."""


class HorizonTooSmall(IdealGamesError):
    """Finite-horizon classification needs a horizon of at least 100."""


class HorizonCapExceeded(IdealGamesError):
    """Requested horizon exceeds the configured memory guard."""


class SpaceMismatch(IdealGamesError):
    """Cylinder and transform live in different spaces."""


class InvalidMove(IdealGamesError):
    """A game strategy emitted an illegal move."""


class ExhaustedIndices(IdealGamesError):
    """A builder ran out of usable indices within the working horizon."""


class OracleViolation(IdealGamesError):
    """A refinement oracle returned something that is not a sub-cylinder."""


class SteeringStuck(IdealGamesError):
    """No unused sequence element lands in the admissible steering window."""


class DslParseError(IdealGamesError):
    """Parse failure in the textual set/sequence DSL, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
