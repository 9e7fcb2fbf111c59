"""Gaussian fitting and the one conditional-Gaussian implementation.

The distributional family is fixed to a joint Gaussian with closed-form
conditionals. `_conditionals` builds them for a stack of conditioning
sets of one size with one stacked solve, and `_Conditioning` is the table
that holds them: sets are added a batch at a time, one `_conditionals`
call per set size, and each set keeps its own rows of that solve. The
Cholesky factors of the target groups that take draws are added with one
stacked factorization per group size. `conditional_params` is a
table-free call of `_conditionals` on one pair. `_Conditioning.draw` is
the only sampling primitive: the conditional mean given a row's
conditioning columns plus `z @ L.T`, with L the Cholesky factor of the
conditional covariance, factorized only when draws are taken. The
importance engine's plan matrices and linear forms, `perturb` and
`MarginalizedPredictor` all read a table. LAPACK solves and factorizes
each matrix of a stack on its own, so a set's floats are those of a stack
of one, whatever batch built it. An independent perturbation (empty
conditioning set) is a fresh draw from the fitted joint, never a row
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
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
    """Cholesky factor of `cov + JITTER * I`, for one matrix or a stack of
    them (LAPACK factorizes each matrix of a stack on its own)."""
    try:
        return np.linalg.cholesky(cov + JITTER * np.eye(cov.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning("covariance block not factorizable") from exc


def _conditionals(blocks: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Gaussian conditionals of a stack of k sets of one size.
    Each set comes as its covariance block (k, m, m) over its own column
    order: its `size` conditioning columns C first, then its targets T.
    Returns the conditional-mean matrices `A = cov_TC cov_CC^-1`
    (k, m - size, size) and the Schur-complement covariances
    (k, m - size, m - size). One `np.linalg.solve` on the stacked
    `cov_CC + JITTER * I`: LAPACK solves each set on its own, so a set's
    floats do not depend on the others in the stack."""
    cov_ct = np.ascontiguousarray(blocks[:, size:, :size]).swapaxes(1, 2)
    try:
        matrix = np.linalg.solve(blocks[:, :size, :size] + JITTER * np.eye(size), cov_ct).swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning("conditioning covariance is singular") from exc
    cov = blocks[:, size:, size:] - matrix @ cov_ct
    return matrix, (cov + cov.swapaxes(1, 2)) / 2.0


def _checked(g: GaussianModel, cond: Iterable[int], targets: Iterable[int]) -> tuple[list[int], list[int]]:
    """Both index sets as lists, in the order given, after checking that
    they are disjoint and within the Gaussian's columns."""
    c = [int(i) for i in cond]
    t = [int(i) for i in targets]
    if set(c) & set(t):
        raise DisjointnessViolation(f"cond {tuple(c)} overlaps targets {tuple(t)}")
    for cols in (c, t):
        FeatureIndexSet.of(cols).validate_within(g.dim)
    return c, t


def conditional_params(
    g: GaussianModel, cond: Iterable[int], targets: Iterable[int]
) -> tuple[AffineMap, np.ndarray]:
    """Closed-form Gaussian conditional of `targets` given `cond`.

    Returns the conditional-mean affine map and the Schur-complement
    covariance. Either index set may be a `FeatureIndexSet` or a
    sequence of column indices; the map's inputs and outputs and the
    covariance follow the order given. The two sets must be disjoint.
    """
    c, t = _checked(g, cond, targets)
    matrix, cov = _conditionals(g.cov[np.ix_(c + t, c + t)][None], len(c))
    return AffineMap(g.mean[t], matrix[0], g.mean[c]), cov[0]


def _reserve(table: np.ndarray, size: int) -> np.ndarray:
    """`table` if it has room for `size` entries along its first axis,
    else a copy of it into twice the room (or `size`, if larger), the new
    room zero."""
    if len(table) >= size:
        return table
    grown = np.zeros((max(size, 2 * len(table)), *table.shape[1:]))
    grown[:len(table)] = table
    return grown


class _Conditioning:
    """The Gaussian conditionals of many conditioning sets, built a batch
    at a time: the one conditional-Gaussian implementation.

    A conditioning set C is a bitmask over `columns`; its conditioning
    columns and its rest (the columns of `columns` outside C) both follow
    the order of `columns`. `add` builds the sets a batch is missing,
    with one `_conditionals` call (one stacked solve) per set size |C|,
    and gives each a slot (`slots[mask]`; slot 0 stands for a kept
    column). The slot's record is the set's conditioning columns, its
    rest, and its own conditional-mean matrix and conditional covariance
    of the rest: views of its rows of the solve, never copied. Every
    (set, targets) block is cut out of a record one way, at the targets'
    positions in the rest. Given a linear predictor's weights w, the
    table also keeps the engine's linear-form table (see
    `dedact.importance`), filled by one scatter per set size:
    `forms[slot]` is d x (d + 1), and its row for a rest column t holds
    `w_t A_C[t, :]` at the conditioning columns and, in the last entry,
    the offset `w_t (mu_t - A_C[t] . mu_C)`; slot 0 holds `w_k e_k` and
    no offset. `forms` grows by doubling, so a batch copies only its own
    sets, and the earlier ones only when the room doubles. `factorize`
    takes the Cholesky factor L of each (C, targets) block that draws
    need, with one stacked `_stable_cholesky` per group size, and keeps
    it per (C, targets), with `L^T w_T` when there are weights.
    """

    def __init__(self, gaussian: GaussianModel, columns, weights: np.ndarray | None = None):
        self.gaussian = gaussian
        self.columns = tuple(columns)
        self.weights = weights
        self.slots: dict[int, int] = {}
        self._sets: list[tuple | None] = [None]  # per slot: (cond, rest, mean matrix, covariance)
        self.factors: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray | None]] = {}
        if weights is not None:
            self.forms = np.hstack([np.diag(weights), np.zeros((weights.size, 1))])[None]

    @classmethod
    def pair(cls, gaussian: GaussianModel, cond, targets) -> tuple["_Conditioning", int]:
        """A table for one checked (cond, targets) pair, and the pair's
        mask: the set's conditioning columns and rest follow the orders
        given."""
        c, t = _checked(gaussian, cond, targets)
        return cls(gaussian, c + t), sum(1 << col for col in set(c))

    def add(self, masks) -> None:
        """Build every set of `masks` that the table does not hold: one
        gather of their covariance blocks, then one `_conditionals` call
        per set size. A set that cannot be solved raises
        `SingularConditioning`, and then none of the batch is held."""
        new: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for mask in masks:
            if mask not in self.slots and mask not in new:
                cond = tuple(col for col in self.columns if mask >> col & 1)
                new[mask] = cond, tuple(col for col in self.columns if not mask >> col & 1)
        if not new:
            return
        items = sorted(new.items(), key=lambda item: len(item[1][0]))  # one run of slots per set size
        order = np.array([cond + rest for _, (cond, rest) in items], dtype=np.intp)
        blocks = self.gaussian.cov[order[:, :, None], order[:, None, :]]
        runs, a = [], 0
        for size, run in groupby(items, key=lambda item: len(item[1][0])):
            b = a + len(list(run))
            runs.append((a, b, size, *_conditionals(blocks[a:b], size)))
            a = b
        first = len(self._sets)
        for j, (mask, _) in enumerate(items):
            self.slots[mask] = first + j
        if self.weights is not None:
            self.forms = _reserve(self.forms, first + len(items))
            means = self.gaussian.mean[order]
        for a, b, size, matrix, cov in runs:
            self._sets += [(*pair, m, c) for (_, pair), m, c in zip(items[a:b], matrix, cov)]
            if self.weights is not None:
                at, cond, rest = np.arange(first + a, first + b)[:, None], order[a:b, :size], order[a:b, size:]
                w_rest = self.weights[rest]
                self.forms[at[:, :, None], rest[:, :, None], cond[:, None, :]] = w_rest[:, :, None] * matrix
                offsets = means[a:b, size:] - (matrix @ means[a:b, :size, None])[:, :, 0]
                self.forms[at, rest, -1] = w_rest * offsets

    def factorize(self, pairs) -> None:
        """Factorize every (mask, targets) pair's covariance block that the
        table does not hold, adding the sets it needs."""
        new = [pair for pair in dict.fromkeys(pairs) if pair not in self.factors]
        self.add(mask for mask, _ in new)
        by_width: dict[int, list] = {}
        for pair in new:
            by_width.setdefault(len(pair[1]), []).append(pair)
        for width, group in by_width.items():
            blocks = np.empty((len(group), width, width))
            for j, (mask, targets) in enumerate(group):
                _, rest, _, cov = self._sets[self.slots[mask]]
                p = [rest.index(t) for t in targets]
                blocks[j] = cov.take(p, 0).take(p, 1)
            chol = _stable_cholesky(blocks)
            v = [None] * len(group)
            if self.weights is not None:
                w_t = self.weights[np.array([t for _, t in group], dtype=np.intp).reshape(len(group), width)]
                v = (chol.swapaxes(1, 2) @ w_t[:, :, None])[:, :, 0]
            for j, pair in enumerate(group):
                self.factors[pair] = (chol[j], v[j])

    def conditional(self, mask: int, targets: tuple[int, ...]):
        """Conditional-mean map and covariance block of the targets given
        the set `mask`, in the order given: cut out of the set's record at
        the targets' positions in its rest, as `factorize` cuts it."""
        self.add((mask,))
        cond, rest, matrix, cov = self._sets[self.slots[mask]]
        p = [rest.index(t) for t in targets]
        mean = self.gaussian.mean
        return AffineMap(mean[list(targets)], matrix.take(p, 0), mean[list(cond)]), cov.take(p, 0).take(p, 1)

    def cholesky(self, mask: int, targets: tuple[int, ...]) -> np.ndarray:
        self.factorize(((mask, targets),))
        return self.factors[mask, targets][0]

    def draw(self, mask: int, targets: tuple[int, ...], x: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """The targets' conditional mean given each row of x's columns of
        the set `mask` (x holds every column), plus `z @ L.T` for standard
        normals z (one column per target, in the order given). Without z
        it is the mean alone, and nothing is factorized."""
        mean_map = self.conditional(mask, targets)[0]
        cond = self._sets[self.slots[mask]][0]
        mean = mean_map.apply(x[:, list(cond)])
        return mean if z is None else mean + z @ self.cholesky(mask, targets).T


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
    table, mask = _Conditioning.pair(sampler.base, sampler.conditioning_set, t)
    return table.draw(mask, t, data.values, z)


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
        self._conditioning, self._mask = _Conditioning.pair(gaussian, cond, self._dropped)
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
            filled[:, list(self._dropped)] = self._conditioning.draw(self._mask, self._dropped, x, z)
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
