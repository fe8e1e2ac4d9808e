"""Exception types shared across the package."""


class FormatError(ValueError):
    """A text file or block does not follow the expected format."""


class MalformedRotationError(ValueError):
    """A rotation system is structurally inconsistent.

    The message names the offending vertex or dart.
    """


class NotOuterplanarError(ValueError):
    """An edge set required to be outerplanar is not.

    The message names the offending component; no obstruction is attached.
    """


class OracleCapError(RuntimeError):
    """Refusal to run the exhaustive oracle on an oversized host."""

    def __init__(self, message: str, edge_count: int, cap: int):
        super().__init__(message)
        self.edge_count = edge_count
        self.cap = cap


class DecompositionNotFound(RuntimeError):
    """No verified outerplanar decomposition was found for a requested cover."""
