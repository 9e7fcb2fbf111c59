"""Direct and associative importance measures and their named special cases.

All four measures share one evaluation engine: each of the two risk
terms is a per-column perturbation plan (keep the original value, or
redraw from the Gaussian conditional given some column set, where the
empty conditioning set means an independent redraw). Columns sharing a
conditioning set are drawn jointly, so the covariate joint is preserved
within each plan group.

Common random numbers: both terms of a repetition consume the same
underlying standard-normal matrix, keyed by the canonical (name-sorted)
column order. Identical plans therefore produce bit-identical risks and
an exactly zero estimate, and paired runs under a shared seed reuse
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    SQUARED_ERROR,
    DataMatrix,
    FeatureIndexSet,
    ImportanceEstimate,
    LinearPredictor,
    LossFunction,
    Predictor,
    TargetVector,
    derive_seed,
)
from .errors import DimensionMismatch, DisjointnessViolation
from .sampler import GaussianModel, _stable_cholesky, conditional_params

MEASURES = ("DI", "AI", "DI_from", "AI_via")

_KEEP = None  # marker: column keeps its original value

_eval_count = 0


def reset_evaluation_count() -> None:
    global _eval_count
    _eval_count = 0


def evaluation_count() -> int:
    return _eval_count


@dataclass(frozen=True)
class MeasureSpec:
    """Full description of one importance evaluation.

    `interest` is K for DI/DI_from and J for AI/AI_via; `baseline` is B
    or C; `aux` is the information source J for DI_from and the feature
    pathway K for AI_via.
    """

    measure: str
    interest: FeatureIndexSet
    baseline: FeatureIndexSet
    aux: FeatureIndexSet = field(default_factory=FeatureIndexSet.empty)
    mode: str = "original_f"
    loss: LossFunction = SQUARED_ERROR
    n_mc: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise DimensionMismatch(f"unknown measure {self.measure!r}")
        if self.mode not in ("original_f", "marginalized"):
            raise DimensionMismatch(f"unknown mode {self.mode!r}")
        if not self.interest.is_disjoint(self.baseline):
            raise DisjointnessViolation(
                f"interest {self.interest.indices} overlaps baseline {self.baseline.indices}"
            )
        if self.n_mc < 1:
            raise DimensionMismatch("n_mc must be >= 1")


class ImportanceEvaluator:
    """Evaluates DI/AI/DI-from/AI-via on one (data, model, Gaussian) triple.

    The data passed here is the evaluation split; fitting the predictor
    and the Gaussian on a disjoint split is the caller's responsibility.
    """

    def __init__(
        self,
        data: DataMatrix,
        target: TargetVector,
        predictor: Predictor,
        gaussian: GaussianModel,
        loss: LossFunction = SQUARED_ERROR,
        n_mc: int = 20,
        seed: int = 0,
        n_integration: int = 32,
        exact_marginalization: bool = False,
    ):
        if len(target) != data.n_rows:
            raise DimensionMismatch("target length disagrees with data")
        if gaussian.dim != data.n_cols:
            raise DimensionMismatch("gaussian dimension disagrees with data")
        self.data = data
        self.target = target
        self.predictor = predictor
        self.gaussian = gaussian
        self.loss = loss
        self.n_mc = n_mc
        self.seed = seed
        self.n_integration = n_integration
        self.exact_marginalization = exact_marginalization
        # canonical column order: by name, so estimates are invariant to
        # relabeling/permuting columns under the same seed
        order = sorted(range(data.n_cols), key=lambda i: data.column_names[i])
        self._canon_rank = {col: rank for rank, col in enumerate(order)}
        self._cond_cache: dict[tuple, tuple] = {}

    # -- plan construction ------------------------------------------------

    def _assignments(self, spec: MeasureSpec) -> tuple[dict, dict]:
        d = self.data.n_cols
        for s in (spec.interest, spec.baseline, spec.aux):
            s.validate_within(d)
        cols = range(d)
        empty = frozenset()
        if spec.measure == "DI":
            k, b = set(spec.interest), set(spec.baseline)
            t1 = {c: (_KEEP if c in b else empty) for c in cols}
            t2 = {c: (_KEEP if c in b | k else empty) for c in cols}
        elif spec.measure == "AI":
            j, c_set = set(spec.interest), set(spec.baseline)
            cj = frozenset(c_set | j)
            t1 = {c: (_KEEP if c in c_set else frozenset(c_set)) for c in cols}
            t2 = {c: (_KEEP if c in cj else cj) for c in cols}
        elif spec.measure == "DI_from":
            k, b, j = set(spec.interest), set(spec.baseline), frozenset(spec.aux)
            t1 = {c: (_KEEP if c in b else empty) for c in cols}
            t2 = {}
            for c in cols:
                if c in b:
                    t2[c] = _KEEP
                elif c in k:
                    t2[c] = _KEEP if c in j else j
                else:
                    t2[c] = empty
        else:  # AI_via
            j, c_set, k = set(spec.interest), set(spec.baseline), set(spec.aux)
            cj = frozenset(c_set | j)
            cs = frozenset(c_set)
            t1 = {c: (_KEEP if c in c_set else cs) for c in cols}
            t2 = {}
            for c in cols:
                if c in k:
                    t2[c] = _KEEP if c in cj else cj
                else:
                    t2[c] = _KEEP if c in c_set else cs
        return t1, t2

    # -- execution ---------------------------------------------------------

    def _conditional_affine(self, cond: tuple[int, ...], targets: tuple[int, ...]):
        """Conditional-mean map plus Cholesky factor of the conditional
        covariance, in the given column order (canonical, not numeric)."""
        key = (cond, targets)
        hit = self._cond_cache.get(key)
        if hit is None:
            mean_map, cov = conditional_params(self.gaussian, cond, targets)
            hit = self._cond_cache[key] = (mean_map, _stable_cholesky(cov))
        return hit

    def _by_canon(self, cols) -> tuple[int, ...]:
        return tuple(sorted(cols, key=lambda c: self._canon_rank[c]))

    def _build_matrix(self, assignments: dict, z: np.ndarray) -> np.ndarray:
        m = self.data.values.copy()
        groups: dict[frozenset, list[int]] = {}
        for col, cond in assignments.items():
            if cond is _KEEP:
                continue
            groups.setdefault(cond, []).append(col)
        for cond in sorted(groups, key=lambda s: self._by_canon(s)):
            targets = self._by_canon(groups[cond])
            cond_cols = self._by_canon(cond)
            mean_map, chol = self._conditional_affine(cond_cols, targets)
            z_cols = [self._canon_rank[c] for c in targets]
            # an independent redraw's mean is the constant offset, which
            # broadcasts without the n x |targets| copy `apply` would make
            mean = mean_map.apply(self.data.values[:, list(cond_cols)]) if cond_cols else mean_map.offset
            m[:, list(targets)] = mean + z[:, z_cols] @ chol.T
        return m

    def _plan_prediction(self, assignments: dict, rng: np.random.Generator | None):
        """Marginalize the model over the plan's perturbed columns.

        Predictions are averaged over n_integration draws, so the
        result approximates E[f(X_keep, X_perturbed) | conditioning]
        row by row. Returns the per-row mean prediction and the per-row
        variance of that mean (sample variance over draws divided by
        the draw count), which is the integration-noise correction for
        squared-error risks. With `exact_marginalization` (linear model
        only) the perturbed columns are set to their conditional means,
        which integrates the expectation in closed form.
        """
        n, d = self.data.values.shape
        if self.exact_marginalization:
            zero = np.zeros((n, d))
            return self.predictor.predict(self._build_matrix(assignments, zero)), np.zeros(n)
        m = self.n_integration
        total = np.zeros(n)
        total_sq = np.zeros(n)
        for _ in range(m):
            p = self.predictor.predict(self._build_matrix(assignments, rng.standard_normal((n, d))))
            total += p
            total_sq += p * p
        mean = total / m
        if m > 1:
            variance = np.maximum(total_sq - m * mean * mean, 0.0) / (m - 1)
            return mean, variance / m
        return mean, np.zeros(n)

    def _term_risk(self, spec: MeasureSpec, y: np.ndarray, pred: np.ndarray,
                   mean_variance: np.ndarray | None) -> float:
        base = spec.loss.elementwise(y, pred)
        # E[(y - mean of m draws)^2] overshoots the marginalized risk by
        # Var/m; subtracting the unbiased variance estimate removes it
        if mean_variance is not None and spec.loss.kind == "squared_error":
            base = base - mean_variance
        return float(np.mean(base))

    def evaluate(self, spec: MeasureSpec) -> ImportanceEstimate:
        global _eval_count
        _eval_count += 1
        t1, t2 = self._assignments(spec)
        sets = {
            "measure": spec.measure,
            "interest": spec.interest.indices,
            "baseline": spec.baseline.indices,
            "aux": spec.aux.indices,
        }
        if t1 == t2:
            return ImportanceEstimate(0.0, 0.0, spec.n_mc, spec.mode, sets, spec.seed)
        exact = spec.mode == "marginalized" and self.exact_marginalization
        if exact and not isinstance(self.predictor, LinearPredictor):
            raise DimensionMismatch("exact marginalization requires a linear predictor")
        n, d = self.data.values.shape
        y = self.target.values
        n_reps = 1 if exact else spec.n_mc
        values = np.empty(n_reps)
        for rep in range(n_reps):
            rng = np.random.default_rng(derive_seed(spec.seed, rep))
            if spec.mode == "original_f":
                z = rng.standard_normal((n, d))
                pred1 = self.predictor.predict(self._build_matrix(t1, z))
                pred2 = self.predictor.predict(self._build_matrix(t2, z))
                var1 = var2 = None
            else:
                # the two plans assign different conditionals to the
                # perturbed columns, so their integration draws come
                # from independent streams and the reported SE covers
                # the marginalization noise of both terms
                rng1 = np.random.default_rng(derive_seed(spec.seed, rep, 1))
                rng2 = np.random.default_rng(derive_seed(spec.seed, rep, 2))
                pred1, var1 = self._plan_prediction(t1, rng1)
                pred2, var2 = self._plan_prediction(t2, rng2)
            values[rep] = self._term_risk(spec, y, pred1, var1) - self._term_risk(spec, y, pred2, var2)
        value = float(values.mean())
        se = float(values.std(ddof=1) / np.sqrt(n_reps)) if n_reps > 1 else 0.0
        return ImportanceEstimate(value, se, n_reps, spec.mode, sets, spec.seed)

    # -- the four measures ---------------------------------------------------

    def _spec(self, measure, interest, baseline, aux=None, mode="original_f", n_mc=None, seed=None):
        return MeasureSpec(
            measure=measure,
            interest=FeatureIndexSet.of(interest),
            baseline=FeatureIndexSet.of(baseline),
            aux=FeatureIndexSet.of(aux) if aux is not None else FeatureIndexSet.empty(),
            mode=mode,
            loss=self.loss,
            n_mc=self.n_mc if n_mc is None else n_mc,
            seed=self.seed if seed is None else seed,
        )

    def direct_importance(self, interest, baseline, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self.evaluate(self._spec("DI", interest, baseline, mode=mode, n_mc=n_mc, seed=seed))

    def associative_importance(self, interest, context, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self.evaluate(self._spec("AI", interest, context, mode=mode, n_mc=n_mc, seed=seed))

    def di_from(self, interest, baseline, sources, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self.evaluate(self._spec("DI_from", interest, baseline, aux=sources, mode=mode, n_mc=n_mc, seed=seed))

    def ai_via(self, interest, context, pathway, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self.evaluate(self._spec("AI_via", interest, context, aux=pathway, mode=mode, n_mc=n_mc, seed=seed))

    # -- named special cases --------------------------------------------------

    def pfi(self, k: int, n_mc=None, seed=None) -> ImportanceEstimate:
        rest = FeatureIndexSet.of([k]).complement(self.data.n_cols)
        return self.direct_importance([k], rest, n_mc=n_mc, seed=seed)

    def conditional_fi(self, j: int, n_mc=None, seed=None) -> ImportanceEstimate:
        rest = FeatureIndexSet.of([j]).complement(self.data.n_cols)
        return self.associative_importance([j], rest, n_mc=n_mc, seed=seed)

    def sage_value(self, subset, variant: str = "conditional", n_mc=None, seed=None) -> ImportanceEstimate:
        if variant == "marginal":
            return self.direct_importance(subset, [], mode="marginalized", n_mc=n_mc, seed=seed)
        if variant == "conditional":
            return self.associative_importance(subset, [], mode="marginalized", n_mc=n_mc, seed=seed)
        raise DimensionMismatch(f"unknown SAGE variant {variant!r}")

    def sage_surplus(self, j: int, context, variant: str = "conditional", n_mc=None, seed=None) -> ImportanceEstimate:
        """v(context + j) - v(context) as one paired evaluation."""
        if variant == "marginal":
            return self.direct_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed)
        if variant == "conditional":
            return self.associative_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed)
        raise DimensionMismatch(f"unknown SAGE variant {variant!r}")

    def sage_attribution(self, j: int, variant: str = "conditional", n_orders: int = 60,
                         n_mc=None, seed=None) -> ImportanceEstimate:
        """Average surplus of j over uniformly random permutation prefixes."""
        seed = self.seed if seed is None else seed
        per_order = []
        for o, context in enumerate(sage_contexts(self.data.n_cols, j, n_orders, seed)):
            inner = self.sage_surplus(j, context, variant=variant, n_mc=n_mc, seed=derive_seed(seed, 7002, o))
            per_order.append(inner.value)
        value, se = pool_orders(per_order)
        if n_orders == 1:
            se = inner.std_error
        sets = {"measure": "SAGE", "interest": (j,), "variant": variant, "n_orders": n_orders}
        return ImportanceEstimate(value, se, n_orders, "marginalized", sets, seed)


def sage_contexts(d: int, j: int, n_orders: int, seed: int) -> list[list[int]]:
    """The columns preceding j in each of n_orders uniformly random orders."""
    rng = np.random.default_rng(derive_seed(seed, 7001))
    contexts = []
    for _ in range(n_orders):
        perm = rng.permutation(d)
        pos = int(np.where(perm == j)[0][0])
        contexts.append([int(c) for c in perm[:pos]])
    return contexts


def pool_orders(per_order) -> tuple[float, float]:
    """Mean of per-order values and its standard error (0 for one order)."""
    arr = np.asarray(per_order, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se
