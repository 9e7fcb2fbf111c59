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


class SingularConditioning(DedactError):
    """Conditioning covariance block is numerically singular."""


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
