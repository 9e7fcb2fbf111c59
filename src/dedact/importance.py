"""Direct and associative importance measures and their named special cases.

All four measures share one evaluation engine: each of the two risk
terms is a per-column perturbation plan (keep the original value, or
redraw from the Gaussian conditional given some column set, where the
empty conditioning set means an independent redraw). Columns sharing a
conditioning set are drawn jointly, so the covariate joint is preserved
within each plan group.

Plan key: a plan is a tuple with one entry per column, `_KEEP` (-1) for
a kept column or the bitmask of the columns it is redrawn given (0 for
an independent redraw). Two measures that assign the same plan to a
term ask for the same risk.

Common random numbers: both terms of a repetition read the same draws,
keyed by the canonical (name-sorted) column order. On the row path
(`original_f` terms the moment form below does not cover: cross-entropy
loss, or a predictor that is not linear) each canonical column has its
own stream, `derive_seed(seed, rep, 3, rank)`, and its n standard
normals are drawn the first time a term of the repetition reads the
column, then kept for the other term (`_ColumnDraws`). A linear
predictor reads only the columns its v weights, so a term that redraws
one weighted column draws n normals and a term whose v is 0 draws none.
On the moment form below both terms read one sample of the moments of
an n x d draw. Identical plans therefore produce bit-identical risks and
an exactly zero estimate, and paired runs under a shared seed reuse
draws. Estimates do not depend on the order or position of the columns:
bit for bit for a linear predictor under squared error in `original_f`
and exact-marginalized mode (the moment form below works in canonical
order), and to rounding on every other path (cross-entropy, Monte-Carlo
marginalization, any other predictor), whose row sums follow the
column order.

Term memo: a term's risk is a pure function of its plan, its loss and
the draws it consumes. Those draws are fixed by (mode, seed, repetition,
stream slot): `original_f` terms share the repetition's draws (memo
slot 0: the column streams on the row path, the sampled moments on the
moment form), Monte-Carlo marginalized terms each take their own
integration stream (slot 1 or 2), and exact-marginalized terms consume
no draws at all. So each evaluator keeps the risks it has computed in a
dict keyed on `(plan, loss kind, mode, seed, rep, slot)`, or on
`(plan, loss kind)` alone for exact marginalization, and `evaluate`
draws a repetition only when a term it needs is missing. A reused risk
is the float that recomputation would give, bit for bit; only the
evaluator's `terms_computed` / `terms_reused` counters can tell the two
apart. Under the moment form below a repetition's moments are sampled at
most once per evaluator, however many terms miss.

Linear form: for a `LinearPredictor` with weights w and intercept b, a
plan's prediction is `X @ u + z @ v + c`. The engine's unit of
conditional set-up is the conditioning set C, not the redrawn group:
the first plan that redraws any columns given C makes one
`dedact.sampler._Conditioning`, the conditional-Gaussian draw that
`perturb` and `MarginalizedPredictor` also take, with one
`conditional_params` solve for every column outside C (canonical
order), and each group (targets T, conditioning C) slices its map rows
`A_C[T]`, offsets `mu_T` and covariance block from it. From the same
solve the evaluator builds two weighted tables once per C:
`rows_C[t] = w_t . A_C[t, :]` scattered over the d columns and
`offs_C[t] = w_t . (mu_t - A_C[t] . mu_C)`. A plan's u is then w with
every redrawn column zeroed plus `rows_C[T].sum(0)` per group
(conditioning reads the original columns), and
`c = b + sum(offs_C[T])`: no solve and no matrix product per plan. Only
draws need the Cholesky factor L of a group's conditional covariance
block, which puts `L^T w_T` in v at the targets' canonical draw
columns; it is factorized the first time a term that takes draws needs
that (C, T) (`original_f`, Monte-Carlo marginalization, or any other
`Predictor`, which is evaluated on the materialized plan matrix) and
kept. Exact marginalization is `X @ u + c` and never factorizes, so a
conditional block that cannot be factorized raises
`SingularConditioning` only where draws are taken. No n x d plan matrix
is built on the linear path.

Moment form: a linear predictor's squared-error risk is a quadratic form
in the moments of the data and the draws, so those terms (in
`original_f` and exact-marginalized mode) never form an n-length
prediction. With `X_c`, `y_c` the evaluation data and target minus their
means `x_bar`, `y_bar` (columns in canonical order, u permuted to match)
and `k = c + x_bar . u - y_bar`, the exact-marginalized risk is
`u' S_xx u - 2 u' s_xy + s_yy + k^2` with `S_xx = X_c' X_c / n`,
`s_xy = X_c' y_c / n` and `s_yy = y_c' y_c / n`, computed once per
evaluator. Centring matters: on data offset by 1e3, risks from
uncentred moments were off by up to 1.5e-9 relative (4.7e-8 at 1e4),
centred ones by 8e-14 (7.8e-13). An `original_f` term adds
`v' S_zz v + 2 v' S_zx u + 2 k v' z_bar - 2 v' s_zy`, where z is the
repetition's n x d standard-normal draw, `S_zz = z' z / n`,
`S_zx = z' X_c / n`, `z_bar = z' 1 / n` and `s_zy = z' y_c / n`.

Those moments are sampled from their exact joint law, not reduced from
n x d normals. Let M = [X_c, y_c, 1] (n x (d + 2)) and B any q x (d + 2)
matrix with `B' B = M' M`, q = min(n, d + 2); the evaluator takes B once
from an eigendecomposition of `M' M` (built from the data moments, the
1 column orthogonal to the centred ones), keeping the q largest
eigenvalues and setting those within rounding of 0 to 0, so B is exact
when M is rank-deficient (a target exactly linear in the columns). Then
M = Q B for some n x q Q with orthonormal columns, and for z with
independent standard-normal entries `G = Q' z` is q x d standard normal
and `z' z - G' G = z' (I - Q Q') z` is Wishart(n - q, I_d), independent of
G. Per (seed, rep) the evaluator draws G and the upper-trapezoidal
Bartlett factor T of that Wishart (min(n - q, d) rows,
`T_ii = sqrt(chi2(n - q - i))` for i from 0, standard normals above the
diagonal; Smith & Hocking 1972, "Wishart variate generator") from
`derive_seed(seed, rep)`, and sets `z' M = G' B` and
`z' z = G' G + T' T`. The four moments then cost O(d^2 + d q) however
large n is, and are kept (about d(2d + 2) floats) for every later term
of that (seed, rep). They have exactly the law of an n x d draw's
moments, so the moment form and the row path (cross-entropy,
Monte-Carlo marginalization, any other predictor) agree in law, not
draw for draw: given the same z, the moment risk equals the row-path
risk to rounding.

Linear Monte-Carlo marginalization: a marginalized term averages the
prediction over m = n_integration draws. For a linear predictor that
mean is `X @ u + c + (1/m) sum_k z_k @ v`, and since each `z_k @ v` is
N(0, |v|^2) per row, independently across rows and draws, the sum is
exactly N(0, |v|^2 / m) per row. So the engine draws one standard
normal e per row from the term's integration stream and predicts
`X @ u + c + (|v| / sqrt(m)) e`: the same distribution of mean
predictions, hence of every cross-entropy risk, from n normals instead
of m n d. Under squared error the full-draw path subtracts the sampled
variance of the mean, S^2 / m, per row; the linear path subtracts the
known |v|^2 / m (nothing when m = 1, as on the full-draw path). Both
corrections have expectation |v|^2 / m, and for Gaussian draws S^2 is
independent of their mean, so E[S^2 | mean] = |v|^2: the linear risk is
the Rao-Blackwellisation of the full-draw one, with the same
expectation and no larger variance. Any other `Predictor` keeps
n_integration full n x d draws from the term's integration stream
`derive_seed(seed, rep, slot)` on the materialized plan matrix. So here,
unlike in `original_f` mode, where both read the same column streams
and agree to rounding, a `LinearPredictor` and any other `Predictor`
computing the same map take different normals and agree in
distribution, not draw for draw.

Cross-entropy under Monte-Carlo marginalization is biased: the loss of
the mean of n_integration draws is not the mean loss, and unlike the
squared-error Var/m correction in `_term_risk` nothing removes the
difference, so such a risk keeps a Jensen bias of order
1 / n_integration. That holds on the linear path too, whose mean
prediction has the same distribution as the full draws' mean. Exact
marginalization (linear predictors only) has no integration noise.
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
from .sampler import GaussianModel, _Conditioning

MEASURES = ("DI", "AI", "DI_from", "AI_via")
MODES = ("original_f", "marginalized")
SAGE_VARIANTS = ("marginal", "conditional")

_KEEP = -1  # plan entry: column keeps its original value

_eval_count = 0


def reset_evaluation_count() -> None:
    global _eval_count
    _eval_count = 0


def evaluation_count() -> int:
    return _eval_count


def _mask(cols) -> int:
    return sum(1 << c for c in cols)


def _column_seed(seed: int, rep: int, rank: int) -> int:
    """Stream of one canonical column's row-path draws. Slot 3 is used by
    no other stream. `SeedSequence` drops trailing zero words, so rank 0
    reads the (unused) key `(seed, rep, 3)`, and a slot of 0 would have
    aliased the moment form's `(seed, rep)`."""
    return derive_seed(seed, rep, 3, rank)


class _ColumnDraws:
    """A repetition's standard normals on the row path: n per canonical
    column, from the column's own stream `_column_seed(seed, rep, rank)`,
    drawn the first time a term reads the column and kept for the other
    term. Answers `z[:, cols]` (cols in canonical order) as an ndarray
    would."""

    def __init__(self, n: int, seed: int, rep: int):
        self.n, self.seed, self.rep = n, seed, rep
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, rank: int) -> np.ndarray:
        hit = self._columns.get(rank)
        if hit is None:
            rng = np.random.default_rng(_column_seed(self.seed, self.rep, rank))
            hit = self._columns[rank] = rng.standard_normal(self.n)
        return hit

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        block = np.empty((self.n, len(cols)))
        for j, rank in enumerate(cols):
            block[:, j] = self._column(int(rank))
        return block[rows]


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
        if self.mode not in MODES:
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
    `evaluations`, `terms_computed` and `terms_reused` count this
    evaluator's `evaluate` calls and the plan-term risks it computed or
    took from its memo.
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
        # canonical column order: by name, so estimates do not depend on
        # how the columns are ordered (see the module docstring)
        self._canon_order = sorted(range(data.n_cols), key=lambda i: data.column_names[i])
        self._canon_rank = {col: rank for rank, col in enumerate(self._canon_order)}
        self._conditionings: dict[int, _Conditioning] = {}
        self._sort_keys: dict[int, list[int]] = {}
        self._risks: dict[tuple, float] = {}
        self._data_moments: tuple | None = None
        self._root: np.ndarray | None = None
        self._draw_moments: dict[tuple[int, int], tuple] = {}
        self.evaluations = 0
        self.terms_computed = 0
        self.terms_reused = 0

    def counters(self) -> dict:
        """The evaluator's counters, as `run()` writes them to a bundle."""
        return {
            "evaluations": self.evaluations,
            "terms_computed": self.terms_computed,
            "terms_reused": self.terms_reused,
        }

    # -- plan construction ------------------------------------------------

    def _plans(self, spec: MeasureSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Plan keys of the two terms (see the module docstring)."""
        d = self.data.n_cols
        for s in (spec.interest, spec.baseline, spec.aux):
            s.validate_within(d)
        interest, baseline, aux = _mask(spec.interest), _mask(spec.baseline), _mask(spec.aux)

        def plan(kept, cond_mask):
            return tuple(_KEEP if kept >> c & 1 else cond_mask for c in range(d))

        if spec.measure == "DI":
            return plan(baseline, 0), plan(baseline | interest, 0)
        if spec.measure == "DI_from":
            kept = baseline | (interest & aux)
            t2 = tuple(_KEEP if kept >> c & 1 else (aux if interest >> c & 1 else 0) for c in range(d))
            return plan(baseline, 0), t2
        t1 = plan(baseline, baseline)
        with_interest = baseline | interest
        if spec.measure == "AI":
            return t1, plan(with_interest, with_interest)
        # AI_via: only the pathway columns see the interest columns
        t2 = tuple(
            (_KEEP if with_interest >> c & 1 else with_interest) if aux >> c & 1 else t1[c]
            for c in range(d)
        )
        return t1, t2

    def _conditioning(self, cond_mask: int) -> _Conditioning:
        """The conditional set-up of one conditioning set, made on first
        need with one `conditional_params` solve, with its sort key: the
        canonical ranks of its conditioning columns."""
        hit = self._conditionings.get(cond_mask)
        if hit is None:
            cond = tuple(c for c in self._canon_order if cond_mask >> c & 1)
            rest = tuple(c for c in self._canon_order if not cond_mask >> c & 1)
            weights = self.predictor.weights if isinstance(self.predictor, LinearPredictor) else None
            hit = self._conditionings[cond_mask] = _Conditioning(self.gaussian, cond, rest, weights)
            self._sort_keys[cond_mask] = [self._canon_rank[c] for c in cond]
        return hit

    def _groups(self, plan) -> list[tuple[_Conditioning, tuple[int, ...]]]:
        """(conditioning, redrawn columns in canonical order) of each
        redrawn group; groups ordered canonically by their conditioning
        columns."""
        by_mask: dict[int, list[int]] = {}
        for col in self._canon_order:
            mask = plan[col]
            if mask != _KEEP:
                by_mask.setdefault(mask, []).append(col)
        conditionings = {mask: self._conditioning(mask) for mask in by_mask}
        return [(conditionings[mask], tuple(by_mask[mask])) for mask in sorted(by_mask, key=self._sort_keys.get)]

    # -- execution ---------------------------------------------------------

    def _build_matrix(self, plan, z: np.ndarray | _ColumnDraws) -> np.ndarray:
        """The evaluation data with the plan's redrawn columns replaced,
        using the standard normals z: an n x d array or `_ColumnDraws`,
        columns in canonical order, read as `z[:, cols]`."""
        m = self.data.values.copy()
        for conditioning, targets in self._groups(plan):
            z_cols = [self._canon_rank[c] for c in targets]
            m[:, list(targets)] = conditioning.draw(targets, self.data.values, z[:, z_cols])
        return m

    def _linear_form(self, plan, draws: bool = True) -> tuple[np.ndarray, np.ndarray | None, float]:
        """(u, v, c) with `X @ u + z @ v + c` the linear predictor's
        output on `_build_matrix(plan, z)`; u is in column order, v in
        canonical (draw) order, and None unless `draws`."""
        w = self.predictor.weights
        u = w.copy()
        u[[col for col, mask in enumerate(plan) if mask != _KEEP]] = 0.0
        v = np.zeros_like(w) if draws else None
        c = self.predictor.intercept
        for conditioning, targets in self._groups(plan):
            t = list(targets)
            u += conditioning.rows[t].sum(axis=0)
            c = c + conditioning.offs[t].sum()
            if draws:
                v[[self._canon_rank[col] for col in t]] = conditioning.cholesky(targets).T @ w[t]
        return u, v, c

    def _plan_predictor(self, plan, draws: bool):
        """z -> the model's predictions on the plan's perturbed data, for
        standard normals z as `_build_matrix` takes them, or None for
        the conditional means (linear predictor only, and the only call
        when not `draws`). A linear predictor reads only the columns its
        v weights, so a plan with v = 0 draws nothing."""
        if isinstance(self.predictor, LinearPredictor):
            u, v, c = self._linear_form(plan, draws)
            base = self.data.values @ u + c
            nz = np.flatnonzero(v) if draws else []
            return lambda z: base if z is None or not len(nz) else base + z[:, nz] @ v[nz]
        return lambda z: self.predictor.predict(self._build_matrix(plan, z))

    # -- moment form (linear predictor, squared error) ----------------------

    def _moments(self) -> tuple:
        """(x_bar, y_bar, S_xx, s_xy, s_yy) of the evaluation data,
        columns in canonical order."""
        if self._data_moments is None:
            x = self.data.values[:, self._canon_order]
            x_bar, y_bar = x.mean(axis=0), float(self.target.values.mean())
            x -= x_bar
            y_c = self.target.values - y_bar
            n = len(y_c)
            self._data_moments = (x_bar, y_bar, x.T @ x / n, x.T @ y_c / n, float(y_c @ y_c) / n)
        return self._data_moments

    def _moment_root(self) -> np.ndarray:
        """B, q x (d + 2) with q = min(n, d + 2), such that B' B = M' M
        for M = [X_c, y_c, 1] (see the module docstring)."""
        if self._root is None:
            _, _, s_xx, s_xy, s_yy = self._moments()
            n, d = self.data.n_rows, len(s_xy)
            gram = np.zeros((d + 2, d + 2))
            gram[:d, :d] = s_xx
            gram[:d, d] = gram[d, :d] = s_xy
            gram[d, d], gram[d + 1, d + 1] = s_yy, 1.0
            evals, evecs = np.linalg.eigh(n * gram)
            # an eigenvalue within rounding of 0 (numpy's matrix_rank
            # tolerance) is 0: its square root would be of order sqrt(eps)
            evals[evals <= evals[-1] * (d + 2) * np.finfo(float).eps] = 0.0
            top = slice(max(d + 2 - n, 0), None)  # eigh sorts ascending
            self._root = np.sqrt(evals[top])[:, None] * evecs[:, top].T
        return self._root

    def _draws(self, seed: int, rep: int) -> tuple:
        """(S_zz, S_zx, z_bar, s_zy) of the repetition's standard normals,
        sampled once per evaluator from their exact law (see the module
        docstring)."""
        hit = self._draw_moments.get((seed, rep))
        if hit is None:
            root = self._moment_root()
            q, n, d = len(root), self.data.n_rows, self.data.n_cols
            rng = np.random.default_rng(derive_seed(seed, rep))
            g = rng.standard_normal((q, d))
            k = n - q  # degrees of freedom of the Wishart remainder
            r = min(k, d)
            t = np.triu(rng.standard_normal((r, d)), 1)
            t[range(r), range(r)] = np.sqrt(rng.chisquare(k - np.arange(r)))
            zm = g.T @ root / n
            hit = self._draw_moments[seed, rep] = ((g.T @ g + t.T @ t) / n, zm[:, :d], zm[:, d + 1], zm[:, d])
        return hit

    def _moment_risk(self, form, draws) -> float:
        """Squared-error risk of `X @ u + z @ v + c` (`X @ u + c` when
        draws is None) as a quadratic form in the moments."""
        u, v, c = form
        u = u[self._canon_order]
        x_bar, y_bar, s_xx, s_xy, s_yy = self._moments()
        k = c + x_bar @ u - y_bar
        risk = u @ s_xx @ u - 2.0 * (u @ s_xy) + s_yy + k * k
        if draws is not None:
            s_zz, s_zx, z_bar, s_zy = draws
            risk += v @ s_zz @ v + 2.0 * (v @ s_zx @ u) + 2.0 * k * (v @ z_bar) - 2.0 * (v @ s_zy)
        return float(risk)

    def _linear_marginalized_prediction(self, form, rng: np.random.Generator):
        """Monte-Carlo marginalization of a linear predictor, drawn
        directly (see the module docstring): the mean of n_integration
        draws of `X @ u + z @ v + c` is `X @ u + c` plus one
        N(0, |v|^2 / n_integration) normal per row. Returns that mean
        and the known variance of its noise, the squared-error
        correction (0 for a single draw, as `_marginalized_prediction`
        gives)."""
        u, v, c = form
        m = self.n_integration
        noise_var = float(v @ v) / m
        pred = self.data.values @ u + c + np.sqrt(noise_var) * rng.standard_normal(self.data.n_rows)
        return pred, noise_var if m > 1 else 0.0

    def _marginalized_prediction(self, predict, rng: np.random.Generator):
        """Marginalize a non-linear model over a plan's perturbed columns.

        Predictions are averaged over n_integration draws, so the
        result approximates E[f(X_keep, X_perturbed) | conditioning]
        row by row. Returns the per-row mean prediction and the per-row
        variance of that mean (sample variance over draws divided by
        the draw count), which is the integration-noise correction for
        squared-error risks. A `LinearPredictor` takes
        `_linear_marginalized_prediction` instead.
        """
        n, d = self.data.values.shape
        m = self.n_integration
        total = np.zeros(n)
        total_sq = np.zeros(n)
        for _ in range(m):
            p = predict(rng.standard_normal((n, d)))
            total += p
            total_sq += p * p
        mean = total / m
        if m > 1:
            variance = np.maximum(total_sq - m * mean * mean, 0.0) / (m - 1)
            return mean, variance / m
        return mean, np.zeros(n)

    def _term_risk(self, spec: MeasureSpec, y: np.ndarray, pred: np.ndarray,
                   mean_variance: np.ndarray | float | None) -> float:
        """Mean loss of the predictions. Under Monte-Carlo
        marginalization only squared error is corrected for integration
        noise (per row, or by one known variance on the linear path); a
        cross-entropy risk keeps its O(1/n_integration) bias."""
        base = spec.loss.elementwise(y, pred)
        # E[(y - mean of m draws)^2] overshoots the marginalized risk by
        # Var/m; subtracting the unbiased variance estimate removes it
        if mean_variance is not None and spec.loss.kind == "squared_error":
            base = base - mean_variance
        return float(np.mean(base))

    def evaluate(self, spec: MeasureSpec) -> ImportanceEstimate:
        global _eval_count
        _eval_count += 1
        self.evaluations += 1
        plans = self._plans(spec)
        sets = {
            "measure": spec.measure,
            "interest": spec.interest.indices,
            "baseline": spec.baseline.indices,
            "aux": spec.aux.indices,
        }
        if plans[0] == plans[1]:
            return ImportanceEstimate(0.0, 0.0, spec.n_mc, spec.mode, sets, spec.seed)
        # with exact marginalization the conditional means integrate
        # the expectation in closed form, so a term needs no draws
        exact = spec.mode == "marginalized" and self.exact_marginalization
        if exact and not isinstance(self.predictor, LinearPredictor):
            raise DimensionMismatch("exact marginalization requires a linear predictor")
        n = self.data.n_rows
        y = self.target.values
        kind = spec.loss.kind
        linear = isinstance(self.predictor, LinearPredictor)
        moment_form = linear and kind == "squared_error" and (exact or spec.mode == "original_f")
        linear_mc = linear and spec.mode == "marginalized" and not exact
        predictors = {}
        n_reps = 1 if exact else spec.n_mc
        values = np.empty(n_reps)
        for rep in range(n_reps):
            z = _ColumnDraws(n, spec.seed, rep)  # shared by both terms, drawn on first read
            risks = []
            # in marginalized mode the two plans assign different
            # conditionals to the perturbed columns, so their integration
            # draws come from independent streams (slots 1 and 2) and the
            # reported SE covers the marginalization noise of both terms
            for slot, plan in enumerate(plans, 1):
                if exact:
                    key = (plan, kind)
                else:
                    stream = slot if spec.mode == "marginalized" else 0
                    key = (plan, kind, spec.mode, spec.seed, rep, stream)
                risk = self._risks.get(key)
                if risk is not None:
                    self.terms_reused += 1
                    risks.append(risk)
                    continue
                # per plan: its (u, v, c) on the moment form or under linear
                # Monte-Carlo marginalization, else z -> predictions
                if plan not in predictors:
                    predictors[plan] = (self._linear_form(plan, not exact) if moment_form or linear_mc
                                        else self._plan_predictor(plan, not exact))
                predict = predictors[plan]
                if moment_form:
                    risk = self._moment_risk(predict, None if exact else self._draws(spec.seed, rep))
                else:
                    if exact:
                        pred, var = predict(None), None
                    elif spec.mode == "original_f":
                        pred, var = predict(z), None
                    else:
                        rng = np.random.default_rng(derive_seed(spec.seed, rep, slot))
                        pred, var = (self._linear_marginalized_prediction(predict, rng) if linear_mc
                                     else self._marginalized_prediction(predict, rng))
                    risk = self._term_risk(spec, y, pred, var)
                self._risks[key] = risk
                self.terms_computed += 1
                risks.append(risk)
            values[rep] = risks[0] - risks[1]
        return ImportanceEstimate(*pool_orders(values), n_reps, spec.mode, sets, spec.seed)

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
    """Mean of per-order (or per-repetition) values and its standard
    error; a lone value is its own mean, with standard error 0."""
    if len(per_order) == 1:
        return float(per_order[0]) + 0.0, 0.0  # + 0.0: the mean of -0.0 is 0.0
    arr = np.asarray(per_order, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
