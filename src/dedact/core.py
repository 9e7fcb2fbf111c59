"""Foundational data types, losses, and the predictor abstraction.

Targets and features are kept on their natural scale; nothing is
standardized implicitly, since importance values are loss-scale
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, SingularDesign

CROSS_ENTROPY_EPS = 1e-12

# Gram matrices with a condition number beyond this are treated as singular.
MAX_CONDITION_NUMBER = 1e12


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministically derive a child seed from a base seed and tags."""
    return int(np.random.SeedSequence([int(seed), *[int(t) for t in tags]]).generate_state(1, np.uint64)[0])


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
        if not np.all(np.isfinite(values)):
            raise DimensionMismatch("data matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        return self.column_names.index(name)

    def select_rows(self, rows: np.ndarray) -> "DataMatrix":
        return DataMatrix(self.values[rows], self.column_names)


@dataclass(frozen=True)
class TargetVector:
    """Length-n regression target or real-encoded class label."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise DimensionMismatch(f"expected 1-d target, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DimensionMismatch("target contains non-finite entries")

    def __len__(self) -> int:
        return len(self.values)

    def select_rows(self, rows: np.ndarray) -> "TargetVector":
        return TargetVector(self.values[rows])


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


def fit_ols(data: DataMatrix, target: TargetVector, support: FeatureIndexSet | None = None) -> LinearPredictor:
    """Least-squares fit over the support columns; other weights are zero."""
    if support is None:
        support = FeatureIndexSet.full(data.n_cols)
    support.validate_within(data.n_cols)
    if len(target) != data.n_rows:
        raise DimensionMismatch(f"target length {len(target)} != n rows {data.n_rows}")
    if data.n_rows <= len(support):
        raise SingularDesign(f"need n > |support|, got n={data.n_rows}, |support|={len(support)}")
    cols = list(support)
    design = np.column_stack([np.ones(data.n_rows), data.values[:, cols]])
    gram = design.T @ design
    if np.linalg.cond(gram) >= MAX_CONDITION_NUMBER:
        raise SingularDesign(f"Gram matrix is numerically singular: {_collinear(gram, data, cols)}")
    coef = np.linalg.solve(gram, design.T @ target.values)
    weights = np.zeros(data.n_cols)
    weights[cols] = coef[1:]
    return LinearPredictor(weights=weights, intercept=coef[0], support=support)


def _collinear(gram: np.ndarray, data: DataMatrix, cols: list[int]) -> str:
    """Which columns of a singular design are at fault. Scaled to unit-norm
    columns (an all-zero column stays 0), the Gram matrix's eigenvector of
    the least eigenvalue, the design's near-null right singular vector, has
    its large entries on the near-collinear columns. If the scaled matrix is
    not singular, no columns are collinear: their scales are too far apart."""
    names = ["the intercept"] + [repr(data.column_names[c]) for c in cols]
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    evals, evecs = np.linalg.eigh(gram / np.outer(norms, norms))
    if evals[0] * MAX_CONDITION_NUMBER > evals[-1]:
        low, high = np.argmin(norms), np.argmax(norms)
        return f"{names[low]} and {names[high]} differ in scale by {norms[high] / norms[low]:.1e} (none are collinear)"
    null = np.abs(evecs[:, 0])
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
