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
no draws at all. So each evaluator keeps one memo entry per term, keyed
on `(plan, loss kind, mode, seed, slot)`, or on `(plan, loss kind)`
alone for exact marginalization, holding the risks of repetitions
0..r-1 in order. Every evaluation asks for repetitions 0..n_mc-1, so an
entry is always such a prefix: a larger n_mc computes only the missing
repetitions and extends it. A reused risk is the float that
recomputation would give, bit for bit; only the evaluator's
`terms_computed` / `terms_reused` counters (one per term and repetition)
can tell the two apart. Under the moment form below a repetition's
moments are sampled at most once per evaluator, however many terms
miss.

Linear form: for a `LinearPredictor` with weights w and intercept b, a
plan's prediction is `X @ u + z @ v + c`. The engine's unit of
conditional set-up is the conditioning set C, not the redrawn group.
Each evaluator keeps one `dedact.sampler._Conditioning`, a table of
conditioning sets that `perturb` and `MarginalizedPredictor` also draw
through. `_linear_forms` hands it every set that a batch's plans redraw
columns given and the table lacks. It builds them with one stacked solve
per set size |C|, for every column outside C (canonical order), and from
the same solves a weighted table, filled by one scatter per size: the
row `forms_C[t]` of a column t outside C holds `w_t . A_C[t, :]`
scattered over the d columns, then the offset
`w_t . (mu_t - A_C[t] . mu_C)`. Each group (targets T, conditioning C)
slices its map rows `A_C[T]`, offsets `mu_T` and covariance block from
its set's solve. A plan's [u | c - b] is then the sum, over the columns
k in canonical order, of `forms_C[k]` for a column redrawn given C
(conditioning reads the original columns) or `[w_k e_k | 0]` for a kept
one: no solve and no matrix product per plan, and a stack of plans is
assembled by one gather per column from the table. Only draws need the Cholesky factor L of a
group's conditional covariance block, which puts `L^T w_T` in v at the
targets' canonical draw columns. When a batch has terms that take draws
(`original_f`, Monte-Carlo marginalization, or any other `Predictor`,
which is evaluated on the materialized plan matrix), the (C, T) pairs
the table lacks are factorized with one stacked Cholesky per group size
|T| and kept with their `L^T w_T`. Exact marginalization is `X @ u + c`
and never factorizes, so a conditional block that cannot be factorized
raises `SingularConditioning` only where draws are taken. LAPACK solves
and factorizes each matrix of a stack on its own, so a set's tables and
factors, and so every plan's (u, v, c), are the same floats whichever
batch built them. No n x d plan matrix is built on the linear path.

Moment form: a linear predictor's squared-error risk is a quadratic form
in the moments of the data and the draws, so those terms (in
`original_f` and exact-marginalized mode) never form an n-length
prediction. With `X_c`, `y_c` the evaluation data and target minus their
means `x_bar`, `y_bar` (columns in canonical order, u permuted to match)
and `k = c + x_bar . u - y_bar`, the exact-marginalized risk is
`u' S_xx u - 2 u' s_xy + s_yy + k^2` with `S_xx = X_c' X_c / n`,
`s_xy = X_c' y_c / n` and `s_yy = y_c' y_c / n`, computed once per
evaluator; a stack of plans takes its quadratic forms row by row (see
Games below). Centring matters:
on data offset by 1e3, risks from uncentred moments were off by up to
1.5e-9 relative (4.7e-8 at 1e4), centred ones by 8e-14 (7.8e-13). An `original_f` term adds
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

Games: a Shapley decomposition values many coalitions of one measure
that differ only in their `aux` set. `evaluate` takes such a game whole,
as a `MeasureBatch` (a `MeasureSpec` and a tuple of aux column
bitmasks), and returns one estimate per mask; a `MeasureSpec` alone is a
batch of one (there is no per-plan path), and each mask counts as one
evaluation. The sets are validated once per batch, both plan keys of
every mask are built with bit operations, each term is looked up in the
memo once, and the missing plans' (u, v, c) are assembled as stacked
arrays.
Their moment-form risks, over all plans and repetitions at once, are
row-wise products (`_dot`) that add each dot product's terms in index
order, as the last running sum of `np.add.accumulate`. No BLAS
product, einsum or numpy reduction runs over the batch: each picks its
loop order and SIMD path by the arrays' shapes and memory alignment, so
a row's rounding would depend on the rows around it (seen with einsum
at d = 5 and with `sum(axis=-1)` on a 606 x 12 x 12 stack). Plans go in
blocks that keep those products under 1 MB. So a plan's risk is the same
float whichever batch computes it, and so are the mean and standard
error over repetitions, pooled the same way. The plan keys follow the
column order, the sums the canonical order, so the permutation
invariance above holds for batches too. Terms outside the moment form
take their risks from n-length predictions, pair by pair and, within a
pair, repetition by repetition, so the two terms of a repetition read
one set of column draws.

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
from itertools import groupby

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


def _mask_array(masks, width: int) -> np.ndarray:
    """Bitmasks of `width` bits as a numpy array: int64 while they fit,
    Python ints (object) beyond."""
    return np.array(masks, dtype=np.int64 if width < 63 else object)


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


_BLOCK = 1 << 17  # elements of a moment-risk block's largest temporary (1 MB)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, a and b broadcast, added in
    index order: the last running sum of `np.add.accumulate`, which by
    definition adds one term at a time. Each entry is then the same
    sequence of roundings whatever the batch around it, whereas BLAS,
    einsum and numpy's own reductions pick their summation order and
    SIMD path by the arrays' shapes and alignment."""
    return np.add.accumulate(a * b, axis=-1)[..., -1]


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


@dataclass(frozen=True)
class MeasureBatch:
    """One measure over many `aux` sets: `spec` with its aux replaced by
    each column bitmask of `auxes` in turn. `evaluate` values the batch
    in one call and returns one estimate per mask."""

    spec: MeasureSpec
    auxes: tuple[int, ...]


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
        weights = predictor.weights if isinstance(predictor, LinearPredictor) else None
        self._table = _Conditioning(gaussian, self._canon_order, weights)
        self._index_sets: dict[int, tuple[int, ...]] = {}
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

    def _plan_pairs(self, spec: MeasureSpec, auxes: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Plan keys of the two terms (see the module docstring) for each
        aux bitmask, built with bit tests over the whole batch; the sets
        are validated once."""
        d = self.data.n_cols
        spec.interest.validate_within(d)
        spec.baseline.validate_within(d)
        if any(aux < 0 or aux >> d for aux in auxes):
            raise DimensionMismatch(f"aux set out of range for d={d}")
        interest, baseline = _mask(spec.interest), _mask(spec.baseline)
        cols = range(d)

        def plan(kept, cond_mask):
            return tuple(_KEEP if kept >> c & 1 else cond_mask for c in cols)

        if spec.measure == "DI":
            return [(plan(baseline, 0), plan(baseline | interest, 0))] * len(auxes)
        with_interest = baseline | interest
        if spec.measure == "AI":
            return [(plan(baseline, baseline), plan(with_interest, with_interest))] * len(auxes)
        aux = _mask_array(auxes, d)[:, None]
        bits = np.arange(d)
        in_aux = (aux >> bits & 1).astype(bool)
        if spec.measure == "DI_from":
            t1 = plan(baseline, 0)
            # interest columns in aux are kept, the others redrawn given aux
            in_interest = (interest >> bits & 1).astype(bool)
            t2 = np.where(in_interest, np.where(in_aux, _KEEP, aux), t1)
        else:  # AI_via: only the pathway columns see the interest columns
            t1 = plan(baseline, baseline)
            t2 = np.where(in_aux, plan(with_interest, with_interest), t1)
        return [(t1, second) for second in map(tuple, t2.tolist())]

    def _indices(self, mask: int) -> tuple[int, ...]:
        """The sorted column indices of a bitmask (one of at most 2^d)."""
        hit = self._index_sets.get(mask)
        if hit is None:
            hit = self._index_sets[mask] = tuple(c for c in range(self.data.n_cols) if mask >> c & 1)
        return hit

    def _groups(self, plan) -> dict[int, tuple[int, ...]]:
        """Redrawn columns of each conditioning set, in canonical order."""
        by_mask: dict[int, list[int]] = {}
        for col in self._canon_order:
            mask = plan[col]
            if mask != _KEEP:
                by_mask.setdefault(mask, []).append(col)
        return {mask: tuple(cols) for mask, cols in by_mask.items()}

    # -- execution ---------------------------------------------------------

    def _build_matrix(self, plan, z: np.ndarray | _ColumnDraws) -> np.ndarray:
        """The evaluation data with the plan's redrawn columns replaced,
        using the standard normals z: an n x d array or `_ColumnDraws`,
        columns in canonical order, read as `z[:, cols]`."""
        m = self.data.values.copy()
        for mask, targets in self._groups(plan).items():
            z_cols = [self._canon_rank[c] for c in targets]
            m[:, list(targets)] = self._table.draw(mask, targets, self.data.values, z[:, z_cols])
        return m

    def _set_up(self, plans, draws: bool) -> tuple[dict[int, int], list[dict[int, tuple[int, ...]]] | None]:
        """Hand the conditioning table every set that the plans redraw
        columns given, in one batch, and with `draws` every (set, group)
        pair to factorize. Returns each plan entry's table slot (0 for
        `_KEEP`) and, with `draws`, each plan's groups."""
        table = self._table
        masks = set().union(*plans)
        masks.discard(_KEEP)
        table.add(masks)
        slot = {mask: table.slots[mask] for mask in masks}
        slot[_KEEP] = 0
        if not draws:
            return slot, None
        groups = [self._groups(plan) for plan in plans]
        table.factorize(pair for plan_groups in groups for pair in plan_groups.items())
        return slot, groups

    def _linear_forms(self, plans, draws: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Stacked (U, V, C) with `X @ u + z @ v + c` the linear
        predictor's output on `_build_matrix(plans[p], z)` for row p: u in
        column order, v in canonical (draw) order, and V None unless
        `draws`. Row p of [U | C] sums, over the columns in canonical
        order, each column's row of its conditioning set's `forms` table
        (a kept column adds w_k at k and no offset), and C adds the
        intercept. Each row's sums run in the same order whatever else the
        batch holds, and do not depend on the column order."""
        slot, groups = self._set_up(plans, draws)
        table, w = self._table, self.predictor.weights
        sets = np.array([list(map(slot.__getitem__, plan)) for plan in plans])
        first, *rest = self._canon_order
        form = table.forms[sets[:, first], first]
        for col in rest:
            form += table.forms[sets[:, col], col]
        u, c = form[:, :-1], form[:, -1] + self.predictor.intercept
        if not draws:
            return u, None, c
        v = np.zeros((len(plans), len(w)))
        for p, plan_groups in enumerate(groups):
            for pair in plan_groups.items():
                v[p, [self._canon_rank[col] for col in pair[1]]] = table.factors[pair][1]
        return u, v, c

    def _form_predictor(self, form):
        """z -> `X @ u + z @ v + c` for the form (u in column order); reads
        only the columns v weights, so v = 0 draws nothing."""
        u, v, c = form
        base = self.data.values @ u + c
        nz = np.flatnonzero(v) if v is not None else []
        return lambda z: base if z is None or not len(nz) else base + z[:, nz] @ v[nz]

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

    def _moment_risks(self, u: np.ndarray, v: np.ndarray | None, c: np.ndarray, draws) -> np.ndarray:
        """Squared-error risks of `X @ u + c`, a 1 x P array over the rows
        of the stacked canonical (U, C) when draws is None; else of
        `X @ u + z @ v + c` for every repetition's moments (S_zz, S_zx,
        z_bar, s_zy stacked over R repetitions) and row of (U, V, C), as
        an R x P array. Every
        product is a `_dot`, so a risk does not depend on the other rows
        or repetitions; rows go in blocks that bound the R x P x d x d
        products."""
        d, n_reps = u.shape[1], 1 if draws is None else len(draws[0])
        step = max(1, _BLOCK // (n_reps * d * d))
        if len(u) > step:
            return np.concatenate([
                self._moment_risks(u[i:i + step], None if v is None else v[i:i + step], c[i:i + step], draws)
                for i in range(0, len(u), step)], axis=-1)
        x_bar, y_bar, s_xx, s_xy, s_yy = self._moments()
        k = c + _dot(u, x_bar) - y_bar
        risk = _dot(u, _dot(s_xx, u[:, None])) - 2.0 * _dot(u, s_xy) + s_yy + k * k
        if draws is None:
            return risk[None]
        s_zz, s_zx, z_bar, s_zy = (m[:, None] for m in draws)  # repetition, then plan
        v_zz_v = _dot(v, _dot(s_zz, v[:, None]))
        v_zx_u = _dot(v, _dot(s_zx, u[:, None]))
        return risk + (v_zz_v + 2.0 * v_zx_u + 2.0 * k * _dot(v, z_bar) - 2.0 * _dot(v, s_zy))

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

    def evaluate(self, spec: MeasureSpec | MeasureBatch) -> ImportanceEstimate | list[ImportanceEstimate]:
        """One estimate for a `MeasureSpec`; for a `MeasureBatch`, one per
        aux bitmask, in order, each counted as one evaluation."""
        global _eval_count
        single = not isinstance(spec, MeasureBatch)
        batch = MeasureBatch(spec, (_mask(spec.aux),)) if single else spec
        spec = batch.spec
        pairs = self._plan_pairs(spec, batch.auxes)
        _eval_count += len(pairs)
        self.evaluations += len(pairs)
        # with exact marginalization the conditional means integrate
        # the expectation in closed form, so a term needs no draws
        exact = spec.mode == "marginalized" and self.exact_marginalization
        linear = isinstance(self.predictor, LinearPredictor)
        if exact and not linear and any(t1 != t2 for t1, t2 in pairs):
            raise DimensionMismatch("exact marginalization requires a linear predictor")
        kind = spec.loss.kind
        moment_form = linear and kind == "squared_error" and (exact or spec.mode == "original_f")
        n_reps = 1 if exact else spec.n_mc
        # in marginalized mode the two plans assign different
        # conditionals to the perturbed columns, so their integration
        # draws come from independent streams (slots 1 and 2) and the
        # reported SE covers the marginalization noise of both terms
        streams = (1, 2) if spec.mode == "marginalized" else (0, 0)
        tails = [(kind,)] * 2 if exact else [(kind, spec.mode, spec.seed, stream) for stream in streams]
        keys = []  # per pair: the two terms' memo keys, or None for identical plans
        misses: dict[tuple, tuple] = {}  # memo key -> (plan, slot, pair, repetitions held), in the order first needed
        for i, (t1, t2) in enumerate(pairs):
            if t1 == t2:
                keys.append(None)
                continue
            two = (t1, *tails[0]), (t2, *tails[1])
            for slot, key in enumerate(two, 1):
                if key not in misses:
                    held = len(self._risks.get(key, ()))
                    if held < n_reps:
                        misses[key] = (key[0], slot, i, held)
            keys.append(two)
        live = [i for i, two in enumerate(keys) if two is not None]
        computed = sum(n_reps - held for *_, held in misses.values())
        self.terms_computed += computed
        self.terms_reused += 2 * n_reps * len(live) - computed
        for key, computed_risks in self._compute(spec, misses, n_reps, exact, moment_form).items():
            self._risks.setdefault(key, []).extend(computed_risks)
        # mean and standard error over the repetitions (pool_orders),
        # row-wise over the batch; identical plans differ by 0.0
        risks = self._risks
        diffs = (np.array([risks[keys[i][0]][:n_reps] for i in live])
                 - np.array([risks[keys[i][1]][:n_reps] for i in live])).reshape(-1, n_reps)
        value, se = np.zeros(len(keys)), np.zeros(len(keys))
        value[live] = mean = _dot(diffs, 1.0) / n_reps + 0.0  # + 0.0: -0.0 becomes 0.0
        if n_reps > 1:
            dev = diffs - mean[:, None]
            se[live] = np.sqrt(_dot(dev, dev) / (n_reps - 1)) / np.sqrt(n_reps)
        sets = {"measure": spec.measure, "interest": spec.interest.indices, "baseline": spec.baseline.indices}
        estimates = [ImportanceEstimate(v, s, n_reps, spec.mode, dict(sets, aux=self._indices(aux)), spec.seed)
                     for aux, v, s in zip(batch.auxes, value.tolist(), se.tolist())]
        return estimates[0] if single else estimates

    def _compute(self, spec: MeasureSpec, misses: dict, n_reps: int, exact: bool, moment_form: bool) -> dict:
        """Risks of the missing terms, keyed like the memo: for each, the
        repetitions from the number it holds up to n_reps, in order."""
        if not misses:
            return {}
        plans = list(dict.fromkeys(plan for plan, *_ in misses.values()))
        linear = isinstance(self.predictor, LinearPredictor)
        forms = self._linear_forms(plans, not exact) if linear else None
        if moment_form:  # one key per plan, in the plans' order
            u, v, c = forms
            # every repetition that some term misses, for every plan
            first = min(held for *_, held in misses.values())
            draws = None if exact else tuple(
                map(np.stack, zip(*(self._draws(spec.seed, rep) for rep in range(first, n_reps)))))
            risks = self._moment_risks(u[:, self._canon_order], v, c, draws)
            return {key: risks[held - first:, p].tolist() for p, (key, (*_, held)) in enumerate(misses.items())}
        if linear:  # per plan: (u in column order, v, c), copied out so BLAS sees them as in a batch of one
            u, v, c = forms
            forms = {plan: (u[p].copy(), None if v is None else v[p].copy(), c[p]) for p, plan in enumerate(plans)}
        else:  # every plan draws through `_build_matrix`
            self._set_up(plans, draws=True)
        return self._row_risks(spec, misses, n_reps, exact, forms)

    def _row_risks(self, spec: MeasureSpec, misses: dict, n_reps: int, exact: bool, forms: dict | None) -> dict:
        """Risks of missing terms that the moment form does not cover, on
        n-length predictions, from the linear `forms` or, when None, the
        materialized plan matrix. The terms go pair by pair (a term goes
        with the first pair that misses it) and, within a pair, repetition
        by repetition, so both terms of a repetition read one set of
        column draws, and at most two predictors and one repetition's
        draws are held at a time."""
        n = self.data.n_rows
        y = self.target.values
        linear_mc = forms is not None and spec.mode == "marginalized" and not exact
        risks = {key: [] for key in misses}
        # misses are in the order first needed, so a pair's terms are adjacent
        for _, group in groupby(misses.items(), key=lambda item: item[1][2]):
            terms = []  # per term: its predictor for all of the pair's repetitions
            for key, (plan, slot, _, held) in group:
                if forms is None:  # the model on the materialized plan matrix
                    predict = lambda z, plan=plan: self.predictor.predict(self._build_matrix(plan, z))
                else:
                    predict = forms[plan] if linear_mc else self._form_predictor(forms[plan])
                terms.append((predict, slot, held, risks[key]))
            for rep in range(min(held for _, _, held, _ in terms), n_reps):
                z = _ColumnDraws(n, spec.seed, rep)
                for predict, slot, held, out in terms:
                    if rep < held:
                        continue
                    if exact:
                        pred, var = predict(None), None
                    elif spec.mode == "original_f":
                        pred, var = predict(z), None
                    else:
                        rng = np.random.default_rng(derive_seed(spec.seed, rep, slot))
                        pred, var = (self._linear_marginalized_prediction(predict, rng) if linear_mc
                                     else self._marginalized_prediction(predict, rng))
                    out.append(self._term_risk(spec, y, pred, var))
        return risks

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

    def _surplus_spec(self, variant, interest, context, n_mc, seed) -> MeasureSpec:
        """v(context + interest) - v(context), marginalized, as one paired
        evaluation: DI under the marginal variant, AI under the conditional."""
        if variant not in SAGE_VARIANTS:
            raise DimensionMismatch(f"unknown SAGE variant {variant!r}")
        measure = "DI" if variant == "marginal" else "AI"
        return self._spec(measure, interest, context, mode="marginalized", n_mc=n_mc, seed=seed)

    def sage_value(self, subset, variant: str = "conditional", n_mc=None, seed=None) -> ImportanceEstimate:
        return self.evaluate(self._surplus_spec(variant, subset, [], n_mc, seed))

    def sage_attribution(self, j: int, variant: str = "conditional", n_orders: int = 60,
                         n_mc=None, seed=None) -> ImportanceEstimate:
        """Average surplus of j over uniformly random permutation prefixes;
        a single context reports its surplus's own standard error."""
        seed = self.seed if seed is None else seed
        surpluses = []

        def surplus(o, context):
            surpluses.append(self.evaluate(self._surplus_spec(variant, [j], context, n_mc, derive_seed(seed, 7002, o))))
            return [surpluses[-1].value]

        _, _, [(value, se)] = sage_loop(self.data.n_cols, j, n_orders, seed, "n_orders", surplus)
        se = surpluses[0].std_error if n_orders == 1 else se
        sets = {"measure": "SAGE", "interest": (j,), "variant": variant, "n_orders": n_orders}
        return ImportanceEstimate(value, se, n_orders, "marginalized", sets, seed)


def sage_loop(d: int, j: int, n_orders: int, seed: int, name: str, value_context) -> tuple:
    """The SAGE context loop: check the order count (`name` is its key),
    draw j's contexts, value context o as the row `value_context(o,
    context)` of m floats, and pool each column over the contexts. Returns
    the contexts, the n_orders x m rows and the m (mean, SE) pairs."""
    check_orders(n_orders, name)
    contexts = sage_contexts(d, j, n_orders, seed)
    rows = np.array([value_context(o, context) for o, context in enumerate(contexts)], dtype=float)
    return contexts, rows, [pool_orders(column) for column in rows.T]


def sage_contexts(d: int, j: int, n_orders: int, seed: int) -> list[list[int]]:
    """The columns preceding j in each of n_orders uniformly random orders."""
    rng = np.random.default_rng(derive_seed(seed, 7001))
    contexts = []
    for _ in range(n_orders):
        perm = rng.permutation(d)
        pos = int(np.where(perm == j)[0][0])
        contexts.append([int(c) for c in perm[:pos]])
    return contexts


def check_orders(n_orders: int, name: str) -> None:
    """An order count must be at least 1: the mean of no orders is NaN."""
    if n_orders < 1:
        raise DimensionMismatch(f"{name} must be >= 1, got {n_orders}")


def pool_orders(per_order) -> tuple[float, float]:
    """Mean of per-order (or per-repetition) values and its standard
    error; a lone value is its own mean, with standard error 0."""
    if len(per_order) == 1:
        return float(per_order[0]) + 0.0, 0.0  # + 0.0: the mean of -0.0 is 0.0
    arr = np.asarray(per_order, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
