"""Exception hierarchy shared across the package."""


class DedactError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DedactError):
    """Array shapes or lengths disagree."""


class DisjointnessViolation(DedactError):
    """Index sets that must be disjoint overlap."""


class SingularDesign(DedactError):
    """Design matrix is numerically singular."""


class InsufficientRows(DedactError):
    """Too few observations for the requested fit."""


class Overflow(DedactError):
    """Values whose squares overflow float64."""


class SingularConditioning(DedactError):
    """Conditioning covariance block is numerically singular.

    `cond` holds the failing set's conditioning columns and, for a block
    that cannot be factorized, `targets` its target columns, when known:
    indices where the error is raised, names once `named` has spelt them
    out. The message lists them.
    """

    def __init__(self, reason: str, cond: tuple | None = None, targets: tuple | None = None):
        self.reason, self.cond, self.targets = reason, cond, targets
        if cond is not None:
            reason += f": conditioning columns {_listed(cond)}"
        if targets is not None:
            reason += f", target columns {_listed(targets)}"
        super().__init__(reason)

    def named(self, names) -> "SingularConditioning":
        """The same error with its columns by name, `names[i]` for index i."""
        if self.cond is None:
            return self
        targets = None if self.targets is None else tuple(names[c] for c in self.targets)
        return SingularConditioning(self.reason, tuple(names[c] for c in self.cond), targets)


def _listed(cols) -> str:
    return ", ".join(map(repr, cols)) if cols else "none"


class TooManyPlayers(DedactError):
    """Exact Shapley solver limit exceeded."""


class CyclicGraph(DedactError):
    """Edge set of a structural model contains a cycle."""


class ParseError(DedactError):
    """Malformed input file."""


class MissingTarget(DedactError):
    """Requested target column is absent."""


class InvalidTarget(DedactError):
    """Target values the configured loss cannot score."""


class ConfigError(DedactError):
    """Invalid run configuration."""
