"""Gaussian fitting, perturbation sampling, and marginalized predictors.

The distributional family is fixed to a joint Gaussian with closed-form
conditionals. Independent perturbations are fresh draws from the fitted
joint (never row permutations), so the two perturbation primitives share
one sampling path.
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
        x_cond = np.asarray(x_cond, dtype=float)
        if self.matrix.shape[1] == 0:
            shape = x_cond.shape[:-1] + (self.offset.size,)
            return np.broadcast_to(self.offset, shape).copy()
        return self.offset + (x_cond - self.cond_mean) @ self.matrix.T


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
    if not c:
        return AffineMap(mu_t, np.zeros((len(t), 0)), mu_c), cov_tt
    cov_cc = g.cov[np.ix_(c, c)] + JITTER * np.eye(len(c))
    cov_tc = g.cov[np.ix_(t, c)]
    try:
        matrix = np.linalg.solve(cov_cc, cov_tc.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning("conditioning covariance is singular") from exc
    cov_c = cov_tt - matrix @ cov_tc.T
    cov_c = (cov_c + cov_c.T) / 2.0
    return AffineMap(mu_t, matrix, mu_c), cov_c


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
    mean_map, cov_c = conditional_params(sampler.base, sampler.conditioning_set, targets)
    chol = _stable_cholesky(cov_c)
    rng = np.random.default_rng(sampler.rng_seed)
    z = rng.standard_normal((data.n_rows, len(targets)))
    return mean_map.apply(data.values[:, list(sampler.conditioning_set)]) + z @ chol.T


class MarginalizedPredictor(Predictor):
    """f_S: the inner predictor averaged over the dropped columns.

    Integration draws are fixed at construction, so predictions are
    deterministic per (input, seed) and shared across rows. With
    `exact=True` and a linear inner predictor the expectation is pushed
    inside and evaluated in closed form.
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
        self.kept_set = kept_set
        self.gaussian = gaussian
        self.integration = integration
        self.n_integration = n_integration
        self.rng_seed = rng_seed
        self.exact = exact
        self.support = kept_set
        d = gaussian.dim
        self._dropped = kept_set.complement(d)
        if len(self._dropped) == 0:
            self._mean_map = None
            self._offsets = None
            return
        cond = kept_set if integration == "conditional" else FeatureIndexSet.empty()
        self._mean_map, cov_c = conditional_params(gaussian, cond, self._dropped)
        if exact:
            self._offsets = np.zeros((1, len(self._dropped)))
        else:
            chol = _stable_cholesky(cov_c)
            eps = np.random.default_rng(rng_seed).standard_normal((n_integration, len(self._dropped)))
            self._offsets = eps @ chol.T

    def _integrand_inputs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        kept = list(self.kept_set)
        cond_cols = kept if self.integration == "conditional" else []
        base = self._mean_map.apply(x[:, cond_cols])
        return x, base

    def predict_samples(self, x: np.ndarray) -> np.ndarray:
        """Per-integration-draw predictions, shape (n_integration, n_rows)."""
        if self._mean_map is None:
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return np.atleast_2d(self.inner.predict(x))
        x, base = self._integrand_inputs(x)
        out = np.empty((self._offsets.shape[0], x.shape[0]))
        filled = x.copy()
        dropped = list(self._dropped)
        for i, offset in enumerate(self._offsets):
            filled[:, dropped] = base + offset
            out[i] = self.inner.predict(filled)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        if self._mean_map is None:
            return self.inner.predict(x_arr)
        result = self.predict_samples(x_arr).mean(axis=0)
        if x_arr.ndim == 1:
            return result[0]
        return result


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
