"""Exception hierarchy shared across the package.

Every error derives from one of three kinds, config, data or numerical,
and its kind holds the CLI's exit code (2, 3, 4) and message label.
"""


class DedactError(Exception):
    """Base class for all package errors."""

    exit_code: int  # set by the kind bases below
    label: str


class _Config(DedactError):
    exit_code, label = 2, "config"


class _Data(DedactError):
    exit_code, label = 3, "data"


class _Numerical(DedactError):
    exit_code, label = 4, "numerical"


class DimensionMismatch(_Data):
    """Array shapes or lengths disagree."""


class DisjointnessViolation(_Config):
    """Index sets that must be disjoint overlap."""


class SingularDesign(_Numerical):
    """Design matrix is numerically singular."""


class InsufficientRows(_Numerical):
    """Too few observations for the requested fit."""


class Overflow(_Numerical):
    """Values whose squares overflow float64."""


class SingularConditioning(_Numerical):
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


class TooManyPlayers(_Numerical):
    """Exact Shapley solver limit exceeded."""


class CyclicGraph(_Numerical):
    """Edge set of a structural model contains a cycle."""


class ParseError(_Data):
    """Malformed input file."""


class MissingTarget(_Data):
    """Requested target column is absent."""


class InvalidTarget(_Data):
    """Target values the configured loss cannot score."""


class ConfigError(_Config):
    """Invalid run configuration."""
