"""Foundational data types, losses, and the predictor abstraction.

Targets and features are kept on their natural scale; nothing is
standardized implicitly, since importance values are loss-scale
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, Overflow, SingularDesign

CROSS_ENTROPY_EPS = 1e-12

# An OLS design whose Gram matrix, scaled to unit diagonal, has a condition
# number (eigenvalue ratio) of at least this is treated as singular.
MAX_CONDITION_NUMBER = 1e12

# Rows per block of every pass over rows: `centred_moments`, the finiteness
# checks, `sample_scm`'s draws and the split's gathers.
MOMENT_BLOCK_ROWS = 4096


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministically derive a child seed from a base seed and tags."""
    return int(np.random.SeedSequence([int(seed), *[int(t) for t in tags]]).generate_state(1, np.uint64)[0])


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite, read MOMENT_BLOCK_ROWS rows at a
    time, so the test holds one block's bools, not an array as large as
    `values`."""
    return all(np.isfinite(values[a:a + MOMENT_BLOCK_ROWS]).all() for a in range(0, len(values), MOMENT_BLOCK_ROWS))


@dataclass(frozen=True)
class DataMatrix:
    """n x d observation matrix with named columns."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if values.ndim != 2:
            raise DimensionMismatch(f"expected 2-d matrix, got shape {values.shape}")
        n, d = values.shape
        if n < 2 or d < 1:
            raise DimensionMismatch(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if len(self.column_names) != d:
            raise DimensionMismatch(f"{len(self.column_names)} names for {d} columns")
        if len(set(self.column_names)) != d:
            raise DimensionMismatch("column names must be unique")
        if not _all_finite(values):
            raise DimensionMismatch("data matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        return self.column_names.index(name)


@dataclass(frozen=True)
class TargetVector:
    """Length-n regression target or real-encoded class label."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise DimensionMismatch(f"expected 1-d target, got shape {values.shape}")
        if not _all_finite(values):
            raise DimensionMismatch("target contains non-finite entries")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FeatureIndexSet:
    """Sorted, duplicate-free set of column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted({int(i) for i in self.indices}))
        if any(i < 0 for i in idx):
            raise DimensionMismatch(f"negative index in {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "FeatureIndexSet":
        return cls(tuple(indices))

    @classmethod
    def empty(cls) -> "FeatureIndexSet":
        return cls(())

    @classmethod
    def full(cls, d: int) -> "FeatureIndexSet":
        return cls(tuple(range(d)))

    def union(self, other: "FeatureIndexSet") -> "FeatureIndexSet":
        return FeatureIndexSet(self.indices + other.indices)

    def difference(self, other: "FeatureIndexSet") -> "FeatureIndexSet":
        return FeatureIndexSet(tuple(i for i in self.indices if i not in set(other.indices)))

    def intersection(self, other: "FeatureIndexSet") -> "FeatureIndexSet":
        return FeatureIndexSet(tuple(i for i in self.indices if i in set(other.indices)))

    def complement(self, d: int) -> "FeatureIndexSet":
        mine = set(self.indices)
        return FeatureIndexSet(tuple(i for i in range(d) if i not in mine))

    def is_disjoint(self, other: "FeatureIndexSet") -> bool:
        return not set(self.indices) & set(other.indices)

    def validate_within(self, d: int) -> None:
        if self.indices and self.indices[-1] >= d:
            raise DimensionMismatch(f"index {self.indices[-1]} out of range for d={d}")

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class LossFunction:
    """Pointwise loss, reduced by the mean over evaluation rows."""

    kind: str = "squared_error"

    def __post_init__(self):
        if self.kind not in ("squared_error", "cross_entropy"):
            raise DimensionMismatch(f"unknown loss kind {self.kind!r}")

    def elementwise(self, y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
        if self.kind == "squared_error":
            return (y - y_hat) ** 2
        p = np.clip(y_hat, CROSS_ENTROPY_EPS, 1.0 - CROSS_ENTROPY_EPS)
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


SQUARED_ERROR = LossFunction("squared_error")
CROSS_ENTROPY = LossFunction("cross_entropy")


class Predictor:
    """Deterministic, pure map from feature rows to predictions.

    `support` declares the columns that predictions actually depend on;
    values outside the support must not change the output.
    """

    support: FeatureIndexSet

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict for a single length-d row or a batch with trailing dim d."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearPredictor(Predictor):
    weights: np.ndarray
    intercept: float
    support: FeatureIndexSet = field(default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercept", float(self.intercept))
        if self.support is None:
            object.__setattr__(self, "support", FeatureIndexSet.of(np.nonzero(w)[0]))

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.weights + self.intercept


def centred_moments(x: np.ndarray, cols, y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Means m and centred cross-product matrix S = sum_i (z_i - m)(z_i - m)^T
    of the rows z_i of the columns `cols` of x, with y as a last column
    when given. Each mean is numpy's sum of its column, read in place.
    The centred rows are summed a block of MOMENT_BLOCK_ROWS rows at a
    time, each block centred into one buffer, column by column (a
    broadcast shift would make numpy buffer the subtraction), so nothing
    of n rows is made beside x and y. Squares that overflow float64 leave
    S non-finite, without a warning."""
    columns = [x[:, c] for c in cols] + ([] if y is None else [y])
    n = len(x)
    buf = np.empty((min(n, MOMENT_BLOCK_ROWS), len(columns)))
    s = np.zeros((len(columns), len(columns)))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.array([column.mean() for column in columns])
        for a in range(0, n, MOMENT_BLOCK_ROWS):
            block = buf[:min(n - a, MOMENT_BLOCK_ROWS)]
            for j, column in enumerate(columns):
                np.subtract(column[a:a + len(block)], mean[j], out=block[:, j])
            s += block.T @ block
    return mean, s


def fit_ols(data: DataMatrix, target: TargetVector, support: FeatureIndexSet | None = None) -> LinearPredictor:
    """Least-squares fit over the support columns; other weights are zero.

    The fit reads the rows once, through `centred_moments` of the support
    columns and the target: the weights solve S_xx w = s_xy and the
    intercept is y_bar - w . x_bar. Whether the design is singular is
    judged on the Gram matrix of [1, X], rebuilt from the same summary as
    [[n, n x_bar^T], [n x_bar, S_xx + n x_bar x_bar^T]] and scaled to
    unit diagonal (an all-zero column's entry stays 0), so a column's
    units do not matter. It is singular when its largest eigenvalue is
    at least MAX_CONDITION_NUMBER times its least (the ratio is the
    condition number of a symmetric positive semi-definite matrix), and
    `_collinear` names the columns from the same matrix.
    Support columns, or a target, whose squares overflow float64 raise
    `Overflow` naming them."""
    if support is None:
        support = FeatureIndexSet.full(data.n_cols)
    support.validate_within(data.n_cols)
    if len(target) != data.n_rows:
        raise DimensionMismatch(f"target length {len(target)} != n rows {data.n_rows}")
    n, cols = data.n_rows, list(support)
    if n <= len(cols):
        raise SingularDesign(f"need n > |support|, got n={n}, |support|={len(cols)}")
    mean, s = centred_moments(data.values, cols, target.values)
    x_bar, y_bar, s_xx, s_xy = mean[:-1], mean[-1], s[:-1, :-1], s[:-1, -1]
    gram = np.empty((len(cols) + 1, len(cols) + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        gram[0, 0] = n
        gram[0, 1:] = gram[1:, 0] = n * x_bar
        gram[1:, 1:] = s_xx + n * np.outer(x_bar, x_bar)
        y_sq = s[-1, -1] + n * y_bar**2
    names = ["the intercept"] + [repr(data.column_names[c]) for c in cols]
    check_squares(gram, names)
    if not np.isfinite(y_sq):  # finite, it and the Gram diagonal bound s_xy (Cauchy-Schwarz)
        raise Overflow("the squares of the target overflow float64")
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    scaled = gram / np.outer(norms, norms)
    evals = np.linalg.eigvalsh(scaled)
    if evals[0] * MAX_CONDITION_NUMBER <= evals[-1]:
        raise SingularDesign(f"Gram matrix is numerically singular: {_collinear(scaled, names)}")
    w = np.linalg.solve(s_xx, s_xy)
    weights = np.zeros(data.n_cols)
    weights[cols] = w
    return LinearPredictor(weights=weights, intercept=y_bar - w @ x_bar, support=support)


def check_squares(second: np.ndarray, names: list[str]) -> None:
    """A matrix of second moments (a Gram matrix or a covariance) must be
    finite. If it is not, the squares of some columns overflow float64:
    those whose diagonal entry is not finite, or, if every diagonal entry
    is, whose row holds an entry that is not. `names[i]` names column i."""
    if np.isfinite(second).all():
        return
    bad = ~np.isfinite(np.diag(second))
    if not bad.any():
        bad = ~np.isfinite(second).all(axis=1)
    raise Overflow(f"the squares of {', '.join(names[i] for i in np.flatnonzero(bad))} overflow float64")


def _collinear(scaled: np.ndarray, names: list[str]) -> str:
    """Which columns of a singular design are at fault, `names[i]` naming
    column i. The eigenvector of the least eigenvalue of the unit-diagonal
    Gram matrix `fit_ols` judged, the design's near-null right singular
    vector, has its large entries on the near-collinear columns."""
    null = np.abs(np.linalg.eigh(scaled)[1][:, 0])
    involved = [names[i] for i in np.flatnonzero(null >= 0.1 * null.max())]
    return f"{involved[0]} is 0 in every row" if len(involved) == 1 else f"{', '.join(involved)} are near-collinear"


def empirical_risk(pred: Predictor, data: DataMatrix, target: TargetVector, loss: LossFunction) -> float:
    if len(target) != data.n_rows:
        raise DimensionMismatch(f"target length {len(target)} != n rows {data.n_rows}")
    y_hat = pred.predict(data.values)
    return float(np.mean(loss.elementwise(target.values, y_hat)))


@dataclass(frozen=True)
class ImportanceEstimate:
    """Monte-Carlo importance value with provenance."""

    value: float
    std_error: float
    n_mc: int
    mode: str
    sets: dict
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise DimensionMismatch("std_error must be nonnegative")
