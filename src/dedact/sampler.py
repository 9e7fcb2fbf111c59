"""Gaussian fitting and the one conditional-Gaussian draw.

The distributional family is fixed to a joint Gaussian with closed-form
conditionals. `_Conditioning.draw` is the only sampling primitive: the
conditional mean given a row's conditioning columns plus `z @ L.T`, with
L the Cholesky factor of the conditional covariance, factorized only when
draws are taken. The importance engine's plan matrices, `perturb` and
`MarginalizedPredictor` all draw through it. An independent perturbation
(empty conditioning set) is a fresh draw from the fitted joint, never a
row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DataMatrix, FeatureIndexSet, LinearPredictor, Predictor
from .errors import DimensionMismatch, DisjointnessViolation, InsufficientRows, SingularConditioning

JITTER = 1e-9


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and covariance matrix of the covariate joint."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(f"bad shapes mean={mean.shape}, cov={cov.shape}")
        if np.max(np.abs(cov - cov.T)) >= 1e-10:
            raise DimensionMismatch("covariance is not symmetric")
        cov = (cov + cov.T) / 2.0
        min_eig = float(np.min(np.linalg.eigvalsh(cov)))
        if min_eig <= -1e-8:
            raise DimensionMismatch(f"covariance not PSD (min eigenvalue {min_eig})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def fit_gaussian(data: DataMatrix) -> GaussianModel:
    """Column means and unbiased sample covariance."""
    n, d = data.values.shape
    if n < d + 1:
        raise InsufficientRows(f"need n >= d + 1, got n={n}, d={d}")
    mean = data.values.mean(axis=0)
    cov = np.cov(data.values, rowvar=False, ddof=1).reshape(d, d)
    return GaussianModel(mean=mean, cov=cov)


@dataclass(frozen=True)
class AffineMap:
    """x_cond -> mu_t + (x_cond - mu_c) @ matrix.T"""

    offset: np.ndarray
    matrix: np.ndarray
    cond_mean: np.ndarray

    def apply(self, x_cond: np.ndarray) -> np.ndarray:
        return self.offset + (np.asarray(x_cond, dtype=float) - self.cond_mean) @ self.matrix.T


def _stable_cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov + JITTER * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning("covariance block not factorizable") from exc


def conditional_params(
    g: GaussianModel, cond: Iterable[int], targets: Iterable[int]
) -> tuple[AffineMap, np.ndarray]:
    """Closed-form Gaussian conditional of `targets` given `cond`.

    Returns the conditional-mean affine map and the Schur-complement
    covariance. Either index set may be a `FeatureIndexSet` or a
    sequence of column indices; the map's inputs and outputs and the
    covariance follow the order given. The two sets must be disjoint.
    """
    c = [int(i) for i in cond]
    t = [int(i) for i in targets]
    if set(c) & set(t):
        raise DisjointnessViolation(f"cond {tuple(c)} overlaps targets {tuple(t)}")
    for cols in (c, t):
        FeatureIndexSet.of(cols).validate_within(g.dim)
    mu_t = g.mean[t]
    mu_c = g.mean[c]
    cov_tt = g.cov[np.ix_(t, t)]
    cov_cc = g.cov[np.ix_(c, c)] + JITTER * np.eye(len(c))
    cov_tc = g.cov[np.ix_(t, c)]
    try:
        matrix = np.linalg.solve(cov_cc, cov_tc.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning("conditioning covariance is singular") from exc
    cov_c = cov_tt - matrix @ cov_tc.T
    cov_c = (cov_c + cov_c.T) / 2.0
    return AffineMap(mu_t, matrix, mu_c), cov_c


class _Conditioning:
    """The conditional of the `rest` columns given the `cond` columns (one
    `conditional_params` solve) and the Cholesky factors of the target
    groups that took draws; given a linear predictor's `weights`, also the
    engine's linear-form tables `rows` and `offs` (see `dedact.importance`)."""

    def __init__(self, gaussian: GaussianModel, cond: tuple[int, ...], rest: tuple[int, ...],
                 weights: np.ndarray | None = None):
        self.cond = cond
        self.mean_map, self.cov = conditional_params(gaussian, cond, rest)
        self.pos = {col: p for p, col in enumerate(rest)}
        self._chol: dict[tuple[int, ...], np.ndarray] = {}
        if weights is not None:
            d, rest_idx = weights.size, list(rest)
            w_rest = weights[rest_idx]
            self.rows = np.zeros((d, d))
            self.rows[np.ix_(rest_idx, list(cond))] = w_rest[:, None] * self.mean_map.matrix
            self.offs = np.zeros(d)
            self.offs[rest_idx] = w_rest * (self.mean_map.offset - self.mean_map.matrix @ self.mean_map.cond_mean)

    def conditional(self, targets: tuple[int, ...]):
        """Conditional-mean map and covariance block of the targets, in
        the order given."""
        p = [self.pos[t] for t in targets]
        m = self.mean_map
        return AffineMap(m.offset[p], m.matrix[p], m.cond_mean), self.cov[np.ix_(p, p)]

    def cholesky(self, targets: tuple[int, ...]) -> np.ndarray:
        hit = self._chol.get(targets)
        if hit is None:
            hit = self._chol[targets] = _stable_cholesky(self.conditional(targets)[1])
        return hit

    def draw(self, targets: tuple[int, ...], x: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """The targets' conditional mean given each row of x's
        conditioning columns (x holds every column), plus `z @ L.T` for
        standard normals z (one column per target, in the order given).
        Without z it is the mean alone, and nothing is factorized."""
        mean = self.conditional(targets)[0].apply(x[:, list(self.cond)])
        return mean if z is None else mean + z @ self.cholesky(targets).T


@dataclass(frozen=True)
class PerturbationSampler:
    """Draws replacement values for target columns.

    With an empty conditioning set the draws are independent of every
    input row; otherwise row i is conditioned on row i's values of the
    conditioning columns.
    """

    base: GaussianModel
    conditioning_set: FeatureIndexSet
    rng_seed: int


def perturb(sampler: PerturbationSampler, data: DataMatrix, targets: FeatureIndexSet) -> np.ndarray:
    """One conditional (or marginal) draw per row for the target columns."""
    if sampler.base.dim != data.n_cols:
        raise DimensionMismatch("gaussian dimension disagrees with data")
    t = tuple(targets)
    z = np.random.default_rng(sampler.rng_seed).standard_normal((data.n_rows, len(t)))
    return _Conditioning(sampler.base, tuple(sampler.conditioning_set), t).draw(t, data.values, z)


class MarginalizedPredictor(Predictor):
    """f_S: the inner predictor averaged over the dropped columns.

    Integration draws are fixed at construction, so predictions are
    deterministic per (input, seed) and shared across rows. With
    `exact=True` and a linear inner predictor the expectation is pushed
    inside and evaluated in closed form, with nothing factorized.
    """

    def __init__(
        self,
        inner: Predictor,
        kept_set: FeatureIndexSet,
        gaussian: GaussianModel,
        integration: str = "conditional",
        n_integration: int = 32,
        rng_seed: int = 0,
        exact: bool = False,
    ):
        if integration not in ("conditional", "independent"):
            raise DimensionMismatch(f"unknown integration mode {integration!r}")
        if n_integration < 1:
            raise DimensionMismatch("n_integration must be >= 1")
        if exact and not isinstance(inner, LinearPredictor):
            raise DimensionMismatch("exact marginalization requires a linear inner predictor")
        self.inner = inner
        self.support = kept_set
        self._dim = gaussian.dim
        self._dropped = tuple(kept_set.complement(gaussian.dim))
        cond = tuple(kept_set) if integration == "conditional" else ()
        self._conditioning = _Conditioning(gaussian, cond, self._dropped)
        # one row of normals per integration draw; else one mean-only sample
        self._z = ([None] if exact or not self._dropped else
                   np.random.default_rng(rng_seed).standard_normal((n_integration, 1, len(self._dropped))))

    def predict_samples(self, x: np.ndarray) -> np.ndarray:
        """Per-integration-draw predictions, shape (n_integration, n_rows),
        or (1, n_rows) when nothing is integrated."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self._dim:
            raise DimensionMismatch(f"x has {x.shape[1]} columns, the gaussian {self._dim}")
        out = np.empty((len(self._z), x.shape[0]))
        filled = x.copy()
        for i, z in enumerate(self._z):
            filled[:, list(self._dropped)] = self._conditioning.draw(self._dropped, x, z)
            out[i] = self.inner.predict(filled)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        result = self.predict_samples(x_arr).mean(axis=0)
        return result[0] if x_arr.ndim == 1 else result


def marginalize(
    pred: Predictor,
    kept: FeatureIndexSet,
    g: GaussianModel,
    integration: str = "conditional",
    n_integration: int = 32,
    seed: int = 0,
    exact: bool = False,
) -> MarginalizedPredictor:
    return MarginalizedPredictor(pred, kept, g, integration, n_integration, seed, exact)
